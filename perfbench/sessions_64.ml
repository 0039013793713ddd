(* sessions-64: the record mix through the MVCC session front-end, 64
   simulated clients multiplexed in one thread with group commit
   (window 64), on a pool-resident database and the paper's single chip.

   Closed loop in rounds: each round hands every client one transaction
   through one [Session.run] call and ends when all 64 are done, so a
   transaction's begin-to-durable host latency is bounded by its round's
   host time. That round time is what [txn_p50_us]/[txn_p99_us] report
   here. Between rounds the harness runs one background merge.

   The run ends with [crashes] crashes, [between_crashes] untraced
   rounds apart, each on the engine the previous restart returned.

   Checks, at every crash: the state read just before it must equal the
   state read after restart and drain, and every value must be one the
   seed or a plan wrote to that page. Over the run, committed + aborted
   + conflict-aborted must equal the number of plans. *)

open Harness
module Session = Ipl_txn.Session

let sessions = 64
let db_pages = 1024
let num_blocks = 256
let config = { Config.default with Config.recovery_enabled = true }

(* Rounds between two of the [crashes]. *)
let between_crashes = 2

let build ~seed () =
  let dev = Dev.of_chip (Chip.create (FConfig.default ~num_blocks ())) in
  build_records dev config ~seed ~n:db_pages

let run ~seed ~txns ~traced =
  let rounds = txns / sessions in
  let (dev, engine, rng, pages, seeded, probe), setup_s =
    Workload.timed_setups (build ~seed)
  in
  (* Every value the seed or a plan wrote, as (page, CRC-32 of value). *)
  let written = Hashtbl.create (txns * 2) in
  let written_key page v = (page lsl 32) lor Workload.crc_string 0 v in
  let note page v = Hashtbl.replace written (written_key page v) () in
  List.iter (fun (p, _, v) -> note p (Bytes.to_string v)) seeded;
  (* Pages are drawn uniformly, as in Obs_bench: the sessions contend only
     where their draws meet. *)
  let page () = pages.(Rng.int rng db_pages) in
  let gen ~lo ~hi =
    Array.init (hi - lo) (fun _ ->
        let round = Array.init sessions (fun _ -> draw_plan rng ~page) in
        Array.iter
          (fun { Session.ops; _ } ->
            List.iter
              (function
                | Session.Update { page; data; _ } | Session.Insert { page; data } ->
                    note page (Bytes.to_string data)
                | Session.Delete _ -> ())
              ops)
          round;
        round)
  in
  progress "setup done (median %.3f s)" setup_s;
  let spans = Span.create ~traced ~sim:(fun () -> Dev.elapsed dev) in
  (* The rounds between crashes run outside the trace. *)
  let quiet = Span.create ~traced:false ~sim:(fun () -> Dev.elapsed dev) in
  let with_span name f = Span.with_span spans name f in
  let fs = failures () in
  let outcomes = ref 0 and conflict_aborts = ref 0 in
  let barriers = ref 0 and batched = ref 0 and session_host = ref 0.0 in
  let meter = start_loop dev engine ~records:rounds ~max_commits:txns in
  (* Session.run raises on an engine error it does not tolerate; the
     whole round then counts as failed. *)
  let session_round ~engine ~sp r plans =
    match
      guard fs "Session.run" (fun () ->
          Span.with_span sp "txn.session_run" (fun () ->
              Span.set_txn sp (r * sessions);
              Session.run ~group_window:sessions ~sessions ~plans engine))
    with
    | Some o ->
        outcomes := !outcomes + o.Session.committed + o.Session.aborted + o.Session.conflict_aborts;
        Some o
    | None ->
        fs.count <- fs.count + sessions - 1;
        None
  in
  chunked meter ~stop:(fun () -> fs.count > 0) ~n:rounds ~gen ~step:(fun r plans ->
      let started = now_ns () in
      let commits =
        match session_round ~engine ~sp:spans r plans with
        | Some o ->
            session_host := !session_host +. secs_between started (now_ns ());
            conflict_aborts := !conflict_aborts + o.Session.conflict_aborts;
            barriers := !barriers + o.Session.mvcc.Ipl_txn.Mvcc.barriers;
            batched := !batched + o.Session.mvcc.Ipl_txn.Mvcc.batched_commits;
            List.iter
              (fun s -> List.iter (sim_commit meter) s.Session.sim_latencies)
              o.Session.per_session;
            o.Session.committed
        | None -> 0
      in
      record meter ~started ~txns:sessions ~commits ~sample:true;
      let started = now_ns () in
      ignore
        (expect_ok fs "engine.compact" (fun () ->
             with_span "engine.compact" (fun () -> Engine.compact engine ~max_merges:1)));
      background meter ~started);
  let loop = finish_loop meter engine in
  progress "loop done: %d transactions, %d committed" loop.txns loop.committed;
  let mismatches = ref 0 and items = ref 0 and tail = ref 0 in
  (* One crash: the state before it, checked against the values written,
     must come back whole after restart and drain. *)
  let crash k engine =
    let before = read_pages fs (Some engine) pages in
    Array.iteri
      (fun i recs ->
        List.iter
          (fun (slot, v) ->
            if not (Hashtbl.mem written (written_key pages.(i) v)) then
              fail fs
                (Printf.sprintf "page %d slot %d holds a value nobody wrote to that page"
                   pages.(i) slot))
          recs)
      before;
    let r = crash_and_restart ~round:k spans fs dev config ~probe ~txn:(txns + !tail + k) in
    let after = read_pages fs r.engine pages in
    Array.iteri
      (fun i want ->
        items := !items + List.length want;
        mismatches := !mismatches + diff_records want after.(i))
      before;
    (r, before, after)
  in
  let rec cycles k engine acc =
    let ((r, _, _) as c) = crash k engine in
    match r.engine with
    | Some engine when k + 1 < crashes && fs.count = 0 ->
        Array.iteri
          (fun j plans ->
            if fs.count = 0 then begin
              ignore (session_round ~engine ~sp:quiet (rounds + (k * between_crashes) + j) plans);
              tail := !tail + sessions
            end)
          (gen ~lo:0 ~hi:between_crashes);
        cycles (k + 1) engine (r :: acc)
    | _ -> (List.rev (r :: acc), c)
  in
  let recoveries, (_, before, after) = cycles 0 engine [] in
  let recovery = mean_recovery recoveries in
  progress "restarted %d times" recovery.crashes;
  if fs.count = 0 && !outcomes <> txns + !tail then
    fail fs
      (Printf.sprintf "committed + aborted + conflict_aborts = %d, plans = %d" !outcomes
         (txns + !tail));
  (* Negative control: the same comparison against the pre-crash state
     with one value corrupted. *)
  let ci = seed mod db_pages in
  let control = diff_records (corrupt_first before.(ci)) after.(ci) in
  {
    Workload.loop;
    recovery;
    extras =
      {
        Report.no_extras with
        Report.setup_s;
        engine_calls_failed = fs.count;
        session_run_host_s = !session_host;
        barriers = !barriers;
        batched_commits = !batched;
        conflict_aborts = !conflict_aborts;
      };
    check =
      {
        items = !items;
        mismatches = !mismatches;
        control_mismatches = control;
        notes = failure_notes fs;
      };
    attempted = loop.txns + !tail + recovery.crashes + !items;
    failed = fs.count + !mismatches;
    rejected = 0;
    spans;
    dev;
    provenance = ("sessions", Json.Int sessions) :: provenance ~db_pages ~engine;
    digest = 0;
  }
