(* oltp-large: the record mix over a database 32x the buffer pool, on a
   4-channel x 2-way device, with fuzzy checkpoints and crashes at the
   end. One client, closed loop; each transaction is its begin, its
   record operations, its commit or abort, and its post-commit reads.

   The harness keeps a model of every committed record. Each engine
   answer is checked against it as the loop runs (a read must return the
   model's value; [No_such_slot] must match a slot the model holds dead;
   [Page_full] is a rejection, not a failure), and after the last
   crash, restart and full drain every record on every page is read
   back and compared with it. *)

open Harness
module Session = Ipl_txn.Session

let db_pages = 8192
let channels = 4
let ways = 2
let num_blocks = 704
let buffer_pages = 256
let checkpoint_every = 64
let compact_every = 50

(* Transactions between two of the [crashes]. *)
let between_crashes = 150

let config ~lazy_recovery =
  {
    Config.default with
    Config.recovery_enabled = true;
    buffer_pages;
    channels;
    ways;
    checkpoint_every;
    lazy_recovery;
  }

let key page slot = (page lsl 20) lor slot

type model = (int, bytes) Hashtbl.t

(* The model's live records per page, slot order. *)
let expected_records (model : model) =
  let per_page = Hashtbl.create db_pages in
  Hashtbl.iter
    (fun k v ->
      let page = k lsr 20 and slot = k land 0xfffff in
      let l = Option.value ~default:[] (Hashtbl.find_opt per_page page) in
      Hashtbl.replace per_page page ((slot, Bytes.to_string v) :: l))
    model;
  fun page ->
    List.sort (fun (a, _) (b, _) -> compare a b)
      (Option.value ~default:[] (Hashtbl.find_opt per_page page))

let build ~seed () =
  let dev =
    Dev.create ~queue_depth:Config.default.Config.queue_depth ~channels ~ways
      (FConfig.default ~num_blocks ())
  in
  build_records dev (config ~lazy_recovery:true) ~seed ~n:db_pages

let run ~seed ~txns ~traced ~restart_lazy =
  let (dev, engine, rng, pages, seeded, probe), setup_s =
    Workload.timed_setups (build ~seed)
  in
  let model : model = Hashtbl.create (db_pages * 8) in
  List.iter (fun (p, s, v) -> Hashtbl.replace model (key p s) v) seeded;
  progress "setup done (median %.3f s)" setup_s;
  let spans = Span.create ~traced ~sim:(fun () -> Dev.elapsed dev) in
  (* The transactions between crashes run outside the trace: the
     per-layer metrics cover the measured loop and the restarts. *)
  let quiet = Span.create ~traced:false ~sim:(fun () -> Dev.elapsed dev) in
  let fs = failures () and rejected = ref 0 in
  (* An engine call inside a span of [sp]; [None] when it raised
     ([call_ok]: or returned an error). *)
  let call sp name f = guard fs name (fun () -> Span.with_span sp name f) in
  let call_ok sp name f = expect_ok fs name (fun () -> Span.with_span sp name f) in
  let meter = start_loop dev engine ~records:txns ~max_commits:txns in
  let run_txn ~engine ~sp ~on_commit i { Session.ops; aborting; reads } =
    Span.set_txn sp i;
    match call sp "engine.begin" (fun () -> Engine.begin_txn engine) with
    | None -> false
    | Some (Error e) ->
        fail fs ("engine.begin: " ^ Engine.error_to_string e);
        false
    | Some (Ok tx) ->
        (* Model changes of this transaction, newest first, to undo on
           abort. *)
        let undo = ref [] in
        let put (k, v) =
          match v with Some v -> Hashtbl.replace model k v | None -> Hashtbl.remove model k
        in
        let set k v =
          undo := (k, Hashtbl.find_opt model k) :: !undo;
          put (k, v)
        in
        let matches page slot got =
          Option.equal Bytes.equal got (Hashtbl.find_opt model (key page slot))
        in
        (* A call that raised leaves the transaction in an unknown state:
           it is aborted, whatever the plan said. *)
        let broken = ref false in
        (* A refused operation must leave the record as it was. *)
        let unchanged name page slot =
          match call sp "engine.read" (fun () -> Engine.read engine ~page ~slot) with
          | Some (Ok got) when matches page slot got -> ()
          | Some _ ->
              fail fs
                (Printf.sprintf "%s refused with Page_full changed page %d slot %d" name page slot)
          | None -> ()
        in
        let agree name ~live ~page ~slot r ~on_ok =
          match r with
          | None -> broken := true
          | Some (Ok x) when live -> on_ok x
          | Some (Error Engine.No_such_slot) when not live -> ()
          | Some (Error Engine.Page_full) when live ->
              incr rejected;
              unchanged name page slot
          | Some (Ok _) -> fail fs (name ^ " succeeded on a slot the model holds dead")
          | Some (Error e) -> fail fs (name ^ ": " ^ Engine.error_to_string e)
        in
        List.iter
          (fun op ->
            if not !broken then
              match op with
              | Session.Update { page; slot; data } ->
                  let k = key page slot in
                  agree "engine.update" ~live:(Hashtbl.mem model k) ~page ~slot
                    (call sp "engine.update" (fun () -> Engine.update engine ~tx ~page ~slot data))
                    ~on_ok:(fun () -> set k (Some data))
              | Session.Delete { page; slot } ->
                  let k = key page slot in
                  agree "engine.delete" ~live:(Hashtbl.mem model k) ~page ~slot
                    (call sp "engine.delete" (fun () -> Engine.delete engine ~tx ~page ~slot))
                    ~on_ok:(fun () -> set k None)
              | Session.Insert { page; data } -> (
                  match call sp "engine.insert" (fun () -> Engine.insert engine ~tx ~page data) with
                  | None -> broken := true
                  | Some (Ok slot) when not (Hashtbl.mem model (key page slot)) ->
                      set (key page slot) (Some data)
                  | Some (Ok _) -> fail fs "engine.insert returned a live slot"
                  | Some (Error Engine.Page_full) -> incr rejected
                  | Some (Error e) -> fail fs ("engine.insert: " ^ Engine.error_to_string e)))
          ops;
        let committed =
          if aborting || !broken then begin
            ignore (call_ok sp "engine.abort" (fun () -> Engine.abort engine tx));
            List.iter put !undo;
            false
          end
          else
            match call_ok sp "engine.commit" (fun () -> Engine.commit engine tx) with
            | Some () ->
                on_commit ();
                true
            | None -> false
        in
        List.iter
          (fun (page, slot) ->
            match call_ok sp "engine.read" (fun () -> Engine.read engine ~page ~slot) with
            | Some got when not (matches page slot got) ->
                fail fs
                  (Printf.sprintf "engine.read of page %d slot %d disagrees with the model" page slot)
            | Some _ | None -> ())
          reads;
        committed
  in
  let page () = pages.(Rng.int rng db_pages) in
  let gen ~lo ~hi = Array.init (hi - lo) (fun _ -> draw_plan rng ~page) in
  chunked meter ~stop:(fun () -> fs.count > 0) ~n:txns ~gen ~step:(fun i plan ->
      let started = now_ns () and sim0 = Dev.elapsed dev in
      let on_commit () = sim_commit meter (Dev.elapsed dev -. sim0) in
      let committed =
        Span.with_span spans "txn" (fun () -> run_txn ~engine ~sp:spans ~on_commit i plan)
      in
      record meter ~started ~txns:1 ~commits:(if committed then 1 else 0) ~sample:true;
      if (i + 1) mod compact_every = 0 then begin
        let started = now_ns () in
        ignore (call_ok spans "engine.compact" (fun () -> Engine.compact engine ~max_merges:1));
        background meter ~started
      end);
  let loop = finish_loop meter engine in
  progress "loop done: %d transactions, %d committed" loop.txns loop.committed;
  (* [crashes] crashes, [between_crashes] transactions apart; the
     restart figures are their means. *)
  let tail = ref 0 in
  let rec cycles k acc =
    let r =
      crash_and_restart ~round:k spans fs dev (config ~lazy_recovery:restart_lazy) ~probe
        ~txn:(txns + !tail + k)
    in
    match r.engine with
    | Some engine when k + 1 < crashes && fs.count = 0 ->
        for _ = 1 to between_crashes do
          if fs.count = 0 then begin
            ignore
              (run_txn ~engine ~sp:quiet ~on_commit:ignore (txns + !tail + k) (draw_plan rng ~page));
            incr tail
          end
        done;
        cycles (k + 1) (r :: acc)
    | _ -> List.rev (r :: acc)
  in
  let recovery = mean_recovery (cycles 0 []) in
  progress "restarted %d times; reading every page back" recovery.crashes;
  (* Every page against the model; the negative control runs the same
     comparison on one page against the model with one value corrupted. *)
  let expected = expected_records model in
  let got = read_pages fs recovery.engine pages in
  let mismatches = ref 0 and items = ref 0 and digest = ref 0 in
  Array.iteri
    (fun i page ->
      let want = expected page in
      items := !items + List.length want;
      mismatches := !mismatches + diff_records want got.(i);
      List.iter
        (fun (slot, v) ->
          digest := Workload.crc_string !digest (Printf.sprintf "%d:%d:%s" page slot v))
        got.(i))
    pages;
  let ci = seed mod db_pages in
  let control = diff_records (corrupt_first (expected pages.(ci))) got.(ci) in
  {
    Workload.loop;
    recovery;
    extras = { Report.no_extras with Report.setup_s; engine_calls_failed = fs.count };
    check =
      {
        items = !items;
        mismatches = !mismatches;
        control_mismatches = control;
        notes = failure_notes fs;
      };
    attempted = loop.txns + !tail + recovery.crashes + !items;
    failed = fs.count + !mismatches;
    rejected = !rejected;
    spans;
    dev;
    provenance = provenance ~db_pages ~engine;
    digest = !digest;
  }
