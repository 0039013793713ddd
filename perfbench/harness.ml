(* Shared machinery of the three workloads: statistics, the record mix,
   the measured loop (host and simulated clocks, GC, layer counters),
   crash and restart, and the metric list every run reports. *)

module Chip = Flash_sim.Flash_chip
module FConfig = Flash_sim.Flash_config
module FStats = Flash_sim.Flash_stats
module Dev = Device.Flash_device
module Engine = Ipl_core.Ipl_engine
module Config = Ipl_core.Ipl_config
module Storage_stats = Ipl_core.Ipl_storage
module Rng = Ipl_util.Rng
module Json = Ipl_util.Json
module Page = Storage.Page

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

(* Nearest rank: the smallest sample with at least [q] of the mass at
   or below it, so every reported percentile is a value that occurred. *)
let quantile a q =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median a = quantile a 0.5
let sum = List.fold_left ( +. ) 0.0
let ratio a b = if b = 0.0 then 0.0 else a /. b
let per_txn x n = ratio (float_of_int x) (float_of_int n)
let now_ns = Span.now_ns
let secs_between a b = float_of_int (b - a) *. 1e-9

(* Progress on standard error: phase name and host seconds since the
   process started. *)
let t_start = now_ns ()
let progress fmt =
  Printf.ksprintf
    (fun s -> Printf.eprintf "[%7.2fs] %s\n%!" (secs_between t_start (now_ns ())) s)
    fmt

(* ------------------------------------------------------------------ *)
(* The record mix of Obs_bench: 1-4 ops per transaction, 55/30/15
   update/insert/delete (a quarter of the updates change the record's
   length), 15 % voluntary aborts, and a post-commit read phase. Slots
   are drawn from twice the seeded population, so a share of updates
   and deletes target dead slots and must be refused with
   [No_such_slot]. *)

let slots_per_page = 8
let payload = 48
let abort_fraction = 0.15
let reads_per_txn = 16
let bytes_of rng len = Bytes.of_string (Rng.alpha_string rng ~min:len ~max:len)

(* [page ()] draws the page of each operation and read. *)
let draw_plan rng ~page =
  let open Ipl_txn.Session in
  let nops = 1 + Rng.int rng 4 in
  let ops =
    List.init nops (fun _ ->
        let page = page () in
        let slot = Rng.int rng (slots_per_page * 2) in
        let r = Rng.float rng 1.0 in
        if r < 0.55 then
          let len = if Rng.chance rng 0.25 then 1 + Rng.int rng (2 * payload) else payload in
          Update { page; slot; data = bytes_of rng len }
        else if r < 0.85 then Insert { page; data = bytes_of rng payload }
        else Delete { page; slot })
  in
  let aborting = Rng.chance rng abort_fraction in
  let reads =
    List.init reads_per_txn (fun _ ->
        let page = page () in
        (page, Rng.int rng (slots_per_page * 2)))
  in
  { ops; aborting; reads }

(* Bulk-load [n] pages of [slots_per_page] seeded records each; returns
   the page ids and the seeded values as [(page, slot, bytes)]. *)
let seed_pages engine rng ~n =
  let page_size = (Engine.config engine).Config.page_size in
  let seeded = ref [] in
  let pages =
    Array.init n (fun _ ->
        let p = Page.create page_size in
        let vals =
          List.init slots_per_page (fun _ ->
              let v = bytes_of rng payload in
              match Page.insert p v with
              | Some slot -> (slot, v)
              | None -> failwith "seed_pages: page full")
        in
        match Engine.allocate_page_with engine p with
        | Ok id ->
            List.iter (fun (slot, v) -> seeded := (id, slot, v) :: !seeded) vals;
            id
        | Error e -> failwith ("seed_pages: " ^ Engine.error_to_string e))
  in
  (pages, List.rev !seeded)

let ok what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Engine.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)

let geometry_json dev =
  let fc = Dev.config dev in
  Json.Obj
    [
      ("channels", Json.Int (Dev.channels dev));
      ("ways", Json.Int (Dev.ways dev));
      ("num_blocks", Json.Int fc.FConfig.num_blocks);
      ("block_bytes", Json.Int fc.FConfig.block_size);
      ("queue_depth", Json.Int (Dev.queue_depth dev));
    ]

let provenance ~db_pages ~engine =
  let cfg = Engine.config engine in
  [
      ("ocaml_version", Json.String Sys.ocaml_version);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("domains_spawned", Json.Int 0);
      ( "ocamlrunparam",
        match Sys.getenv_opt "OCAMLRUNPARAM" with Some s -> Json.String s | None -> Json.Null );
      ("device", geometry_json (Engine.device engine));
      ("buffer_pages", Json.Int cfg.Config.buffer_pages);
      ("log_cache_bytes", Json.Int cfg.Config.log_cache_bytes);
      ("page_bytes", Json.Int cfg.Config.page_size);
      ("db_pages", Json.Int db_pages);
      ("recovery_enabled", Json.Bool cfg.Config.recovery_enabled);
      ("checkpoint_every", Json.Int cfg.Config.checkpoint_every);
      ("lazy_recovery", Json.Bool cfg.Config.lazy_recovery);
  ]

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)

(* Other tenants of a shared host slow everything on it down, by up to
   2x, in phases that last from a fraction of a second to whole runs. A
   fixed CPU-bound probe, timed at the edges of every measured stretch,
   shows how fast the host ran at that moment, and the stretch's host
   times are scaled by [reference_probe_ns] over the mean of its two
   edge probes. Host-clock metrics are therefore in seconds of the
   reference host, a 2-core x86-64 machine on which the probe takes
   [reference_probe_ns] when undisturbed: a change to the program moves
   them, the neighbours mostly do not. *)
let reference_probe_ns = 850_000
let probe_sink = ref 0

let probe () =
  let t0 = now_ns () in
  let x = ref 0 in
  for i = 0 to 1_000_000 do
    x := !x + ((i * i) land 1023)
  done;
  probe_sink := !probe_sink lxor !x;
  now_ns () - t0

let speed_scale p0 p1 = 2.0 *. float_of_int reference_probe_ns /. float_of_int (p0 + p1)

(* [f ()] and its host seconds, scaled to the reference host. *)
let timed_scaled f =
  let p0 = probe () in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  (r, secs_between t0 t1 *. speed_scale p0 (probe ()))

(* ------------------------------------------------------------------ *)
(* The measured loop                                                   *)

(* The loop runs in chunks. Each chunk's inputs are generated just
   before it, outside every measurement (host time and allocation), so
   only one chunk of inputs is alive at a time. Each chunk's host times
   are scaled by the probes at its edges; 48 chunks (about 0.4 s each in
   a 20 s run) follow the host's speed closely. In a 20 s run each tpcc
   chunk is one whole 100-card deck. *)
let chunks = 48

type gc_mark = { minor : float; promoted : float; major : float; collections : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_words;
    promoted = s.Gc.promoted_words;
    major = s.Gc.major_words;
    collections = s.Gc.major_collections;
  }

let gc_diff b a =
  {
    minor = b.minor -. a.minor;
    promoted = b.promoted -. a.promoted;
    major = b.major -. a.major;
    collections = b.collections - a.collections;
  }

let no_gc = { minor = 0.0; promoted = 0.0; major = 0.0; collections = 0 }
let gc_add a b = gc_diff a (gc_diff no_gc b)

type chan_mark = { busy : float; qsum : float; subs : int }

let chan_marks dev =
  List.map
    (fun (r : Dev.channel_report) ->
      let subs = List.fold_left (fun a (_, n) -> a + n) 0 r.Dev.submitted_by_class in
      { busy = r.Dev.busy_s; qsum = r.Dev.mean_queue_depth *. float_of_int subs; subs })
    (Dev.channel_report dev)

type meter = {
  dev : Dev.t;
  lat : Float.Array.t;  (** host seconds per latency sample *)
  lat_chunk : int array;  (** the chunk each sample fell in *)
  sim_commit : Float.Array.t;  (** simulated begin -> durable, seconds *)
  mutable samples : int;
  mutable commits : int;
  mutable txns : int;
  mutable sim_commits : int;
  mutable chunk : int;
  chunk_busy : int array;  (** host ns spent in the workload's calls *)
  chunk_commits : int array;
  probe_ns : int array;  (** probe before each chunk and after the last *)
  mutable excluded : gc_mark;  (** allocation of input generation *)
  sim0 : float;
  gc0 : gc_mark;
  flash0 : FStats.t;
  engine0 : Engine.combined_stats;
  chan0 : chan_mark list;
}

(* [records]: loop steps, one transaction each (one round of 64 on
   sessions-64); [max_commits]: commits the loop can time. *)
let start_loop dev engine ~records ~max_commits =
  {
    dev;
    lat = Float.Array.make records 0.0;
    lat_chunk = Array.make records 0;
    samples = 0;
    sim_commit = Float.Array.make max_commits 0.0;
    commits = 0;
    txns = 0;
    sim_commits = 0;
    chunk = 0;
    chunk_busy = Array.make chunks 0;
    chunk_commits = Array.make chunks 0;
    probe_ns = Array.make (chunks + 1) 0;
    excluded = no_gc;
    sim0 = Dev.elapsed dev;
    gc0 = gc_mark ();
    flash0 = Dev.stats dev;
    engine0 = Engine.stats engine;
    chan0 = chan_marks dev;
  }

(* Run [n] loop steps in [chunks] chunks: [gen ~lo ~hi] draws the inputs
   of steps [lo, hi) unmeasured, then [step i input] runs each. The loop
   ends early once [stop ()] holds: after a failed engine call the
   engine's state is unknown and measuring on is meaningless. *)
let chunked m ~n ~gen ~step ~stop =
  for c = 0 to chunks - 1 do
    if not (stop ()) then begin
      let lo = c * n / chunks and hi = (c + 1) * n / chunks in
      let g0 = gc_mark () in
      let inputs = gen ~lo ~hi in
      m.excluded <- gc_add m.excluded (gc_diff (gc_mark ()) g0);
      m.chunk <- c;
      m.probe_ns.(c) <- probe ();
      Array.iteri (fun j x -> if not (stop ()) then step (lo + j) x) inputs;
      m.probe_ns.(c + 1) <- probe ()
    end
  done

(* One loop step that started at [started] (host ns) and committed
   [commits] of its [txns] transactions. [sample]: its host time is a
   latency sample. *)
let record m ~started ~txns ~commits ~sample =
  let ns = now_ns () - started in
  if sample then begin
    Float.Array.set m.lat m.samples (float_of_int ns *. 1e-9);
    m.lat_chunk.(m.samples) <- m.chunk;
    m.samples <- m.samples + 1
  end;
  m.txns <- m.txns + txns;
  m.commits <- m.commits + commits;
  m.chunk_busy.(m.chunk) <- m.chunk_busy.(m.chunk) + ns;
  m.chunk_commits.(m.chunk) <- m.chunk_commits.(m.chunk) + commits

(* Host time of maintenance the loop runs between steps (merges). *)
let background m ~started =
  m.chunk_busy.(m.chunk) <- m.chunk_busy.(m.chunk) + (now_ns () - started)

let sim_commit m s =
  Float.Array.set m.sim_commit m.sim_commits s;
  m.sim_commits <- m.sim_commits + 1

type loop = {
  txns : int;
  committed : int;
  host_lat : float array;  (** scaled to the reference host *)
  chunk_rates : float array;
      (** committed per reference-host second, one per chunk the loop
          reached (it may stop early) *)
  slowdown : float;  (** median edge probe over [reference_probe_ns] *)
  sim_commit_lat : float array;
  sim_s : float;
  gc : gc_mark;  (** deltas, input generation excluded *)
  flash : FStats.t;
  stats : Engine.combined_stats;
  chans : chan_mark list;  (** deltas *)
  heap_peak_mb : float;
      (** the major heap's high-water mark when the loop ends (set-up
          included; the checks that follow are the harness's own) *)
}

let finish_loop m engine =
  let g = gc_diff (gc_diff (gc_mark ()) m.gc0) m.excluded in
  let chans =
    List.map2
      (fun a b -> { busy = b.busy -. a.busy; qsum = b.qsum -. a.qsum; subs = b.subs - a.subs })
      m.chan0 (chan_marks m.dev)
  in
  let scale c = speed_scale m.probe_ns.(c) m.probe_ns.(c + 1) in
  let reached = List.filter (fun c -> m.chunk_busy.(c) > 0) (List.init chunks Fun.id) in
  {
    txns = m.txns;
    committed = m.commits;
    host_lat = Array.init m.samples (fun i -> Float.Array.get m.lat i *. scale m.lat_chunk.(i));
    chunk_rates =
      Array.of_list
        (List.map
           (fun c ->
             float_of_int m.chunk_commits.(c) /. (float_of_int m.chunk_busy.(c) *. 1e-9 *. scale c))
           reached);
    slowdown =
      median
        (Array.of_list
           (List.map
              (fun c -> float_of_int m.probe_ns.(c) /. float_of_int reference_probe_ns)
              reached));
    sim_commit_lat = Array.init m.sim_commits (Float.Array.get m.sim_commit);
    sim_s = Dev.elapsed m.dev -. m.sim0;
    gc = g;
    flash = FStats.diff (Dev.stats m.dev) m.flash0;
    stats = Engine.Stats.diff (Engine.stats engine) m.engine0;
    chans;
    heap_peak_mb =
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0;
  }

(* Committed transactions per reference-host second: the median chunk. *)
let txn_rate l = median l.chunk_rates

(* ------------------------------------------------------------------ *)
(* Crash, restart, first transaction, drain                            *)

(* The availability probe lives on a page of its own that the workload
   never touches, so time-to-first-transaction does not depend on the
   seed's key draw. *)
let probe_payload = 48

(* The probe record holds [probe_value round] before the [round]-th
   crash and [probe_value (round + 1)] after its first transaction. *)
let probe_value round = Bytes.make probe_payload (Char.chr (Char.code 'a' + (round mod 26)))

let make_probe engine =
  let tx = ok "probe begin" (Engine.begin_txn engine) in
  let page = ok "probe page" (Engine.allocate_page engine) in
  let slot = ok "probe insert" (Engine.insert engine ~tx ~page (probe_value 0)) in
  ok "probe commit" (Engine.commit engine tx);
  (page, slot)

(* The record-mix database: [n] seeded pages plus the probe page,
   checkpointed. Returns the RNG positioned after the seeding. *)
let build_records dev config ~seed ~n =
  let engine = Engine.create_device ~config dev in
  let rng = Rng.of_int seed in
  let pages, seeded = seed_pages engine rng ~n in
  let probe = make_probe engine in
  ok "setup checkpoint" (Engine.checkpoint engine);
  (dev, engine, rng, pages, seeded, probe)

(* Failed engine calls: a typed error the model did not predict, or an
   exception that escaped the typed API. The first one is kept for the
   result's notes. *)
type failures = { mutable count : int; mutable first : string option }

let failures () = { count = 0; first = None }

let fail fs what =
  fs.count <- fs.count + 1;
  if fs.first = None then fs.first <- Some what

(* Run an engine call; an escaped exception is a failed call. *)
let guard fs what f =
  match f () with
  | r -> Some r
  | exception ((Failure _ | Invalid_argument _ | Not_found | Assert_failure _) as e) ->
      fail fs (what ^ " raised " ^ Printexc.to_string e);
      None

(* [guard] for a typed call whose only acceptable answer is [Ok]. *)
let expect_ok fs what f =
  match guard fs what f with
  | Some (Ok v) -> Some v
  | Some (Error e) ->
      fail fs (what ^ ": " ^ Engine.error_to_string e);
      None
  | None -> None

type recovery = {
  engine : Engine.t option;  (** the restarted engine; [None] if restart raised *)
  restart_host_s : float;
  restart_log_reads : int;
  repair_pending : int;
  ttft_sim_s : float;  (** crash -> first durable commit *)
  drain_sim_s : float;
  drain_host_s : float;
  crashes : int;  (** crashes the figures are the mean of *)
}

let log_reads engine = (Engine.stats engine).Engine.storage.Storage_stats.log_sector_reads

(* The crash: the old engine is dropped as it stands (no checkpoint, no
   flush; every commit it acknowledged is already durable), and the
   device is reopened. The first transaction reads the probe record,
   rewrites it and commits; then pending lazy repairs are drained. *)
let crash_and_restart ?(round = 0) spans fs dev config ~probe:(page, slot) ~txn =
  let with_span name f = Span.with_span spans name f in
  let sim0 = Dev.elapsed dev and host0 = now_ns () in
  let restarted =
    guard fs "engine.restart" (fun () ->
        with_span "engine.restart" (fun () -> Engine.restart_device ~config dev))
  in
  let restart_host_s = secs_between host0 (now_ns ()) in
  match restarted with
  | None ->
      {
        engine = None;
        restart_host_s;
        restart_log_reads = 0;
        repair_pending = 0;
        ttft_sim_s = Dev.elapsed dev -. sim0;
        drain_sim_s = 0.0;
        drain_host_s = 0.0;
        crashes = 1;
      }
  | Some (engine, aborted) ->
      if aborted <> [] then fail fs "restart aborted transactions the harness had finished";
      let restart_log_reads = log_reads engine in
      let repair_pending = Engine.repair_pending engine in
      let fresh = probe_value (round + 1) in
      with_span "probe" (fun () ->
          Span.set_txn spans txn;
          match
            expect_ok fs "probe begin" (fun () ->
                with_span "engine.begin" (fun () -> Engine.begin_txn engine))
          with
          | None -> ()
          | Some tx ->
              (match
                 expect_ok fs "probe read" (fun () ->
                     with_span "engine.read" (fun () -> Engine.read engine ~page ~slot))
               with
              | Some (Some b) when Bytes.equal b (probe_value round) -> ()
              | Some _ -> fail fs "probe read returned the wrong value"
              | None -> ());
              ignore
                (expect_ok fs "probe update" (fun () ->
                     with_span "engine.update" (fun () ->
                         Engine.update engine ~tx ~page ~slot fresh)));
              ignore
                (expect_ok fs "probe commit" (fun () ->
                     with_span "engine.commit" (fun () -> Engine.commit engine tx))));
      let ttft_sim_s = Dev.elapsed dev -. sim0 in
      let d_sim0 = Dev.elapsed dev and d_host0 = now_ns () in
      ignore
        (expect_ok fs "engine.drain_repairs" (fun () ->
             with_span "engine.drain" (fun () -> Engine.drain_repairs engine ~max_eus:max_int)));
      let drain_sim_s = Dev.elapsed dev -. d_sim0 in
      let drain_host_s = secs_between d_host0 (now_ns ()) in
      if Engine.repair_pending engine <> 0 then fail fs "repairs still pending after drain";
      (match expect_ok fs "probe reread" (fun () -> Engine.read engine ~page ~slot) with
      | Some (Some b) when Bytes.equal b fresh -> ()
      | Some _ -> fail fs "probe update lost after restart"
      | None -> ());
      {
        engine = Some engine;
        restart_host_s;
        restart_log_reads;
        repair_pending;
        ttft_sim_s;
        drain_sim_s;
        drain_host_s;
        crashes = 1;
      }

(* Crashes per run on oltp-large and sessions-64. One restart's time
   depends on how full the transaction and metadata logs stand at the
   crash, which the seed decides; the mean over crashes spread across a
   few of their fill cycles does not. *)
let crashes = 16

(* Several crashes of one run as one: the mean of each figure, and the
   last restart's engine ([None] if any restart raised). *)
let mean_recovery rs =
  let n = List.length rs in
  let mean f = List.fold_left (fun a r -> a +. f r) 0.0 rs /. float_of_int n in
  let mean_int f = Float.to_int (Float.round (mean (fun r -> float_of_int (f r)))) in
  {
    engine =
      (if List.exists (fun r -> r.engine = None) rs then None
       else (List.nth rs (n - 1)).engine);
    restart_host_s = mean (fun r -> r.restart_host_s);
    restart_log_reads = mean_int (fun r -> r.restart_log_reads);
    repair_pending = mean_int (fun r -> r.repair_pending);
    ttft_sim_s = mean (fun r -> r.ttft_sim_s);
    drain_sim_s = mean (fun r -> r.drain_sim_s);
    drain_host_s = mean (fun r -> r.drain_host_s);
    crashes = n;
  }

(* Every live (slot, payload) of every page; a page that cannot be read
   counts as one failed call and reads empty. *)
let read_pages fs engine pages =
  match engine with
  | None -> Array.map (fun _ -> []) pages
  | Some engine ->
      Array.map
        (fun page ->
          Option.value ~default:[]
            (expect_ok fs "read back" (fun () ->
                 Engine.with_page engine page (fun p ->
                     let acc = ref [] in
                     Page.iter (fun slot b -> acc := (slot, Bytes.to_string b) :: !acc) p;
                     List.rev !acc))))
        pages

(* ------------------------------------------------------------------ *)
(* Check outcome                                                       *)

(* A workload's correctness verdict: the number of mismatches its check
   found, and how many the same check found after one expected value was
   corrupted (the negative control, which must be at least one). *)
type check = { items : int; mismatches : int; control_mismatches : int; notes : string list }

(* Compare two pages' live records, both in slot order. Each slot present
   on one side only, or with different bytes, is one mismatch. *)
let rec diff_records expected actual =
  match (expected, actual) with
  | [], rest | rest, [] -> List.length rest
  | (se, ve) :: e', (sa, va) :: a' ->
      if se = sa then (if String.equal ve va then 0 else 1) + diff_records e' a'
      else if se < sa then 1 + diff_records e' actual
      else 1 + diff_records expected a'

(* The same comparison with the first expected value corrupted. *)
let corrupt_first = function
  | (slot, v) :: rest -> (slot, "!" ^ v) :: rest
  | [] -> [ (0, "!") ]

let failure_notes fs =
  match fs.first with
  | None -> []
  | Some first -> [ Printf.sprintf "%d failed engine calls; first: %s" fs.count first ]
