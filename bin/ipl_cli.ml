(* Command-line front end for the reproduction: generate TPC-C traces,
   analyse them, run the Algorithm 2 simulator and sweeps, reproduce the
   Q1-Q6 device comparison, and regenerate the paper's whole evaluation.

     ipl_cli gen --warehouses 1 --buffer-mb 4 --transactions 5000 -o t.trace
     ipl_cli stats t.trace
     ipl_cli simulate t.trace --log-region-kb 16
     ipl_cli sweep t.trace
     ipl_cli queries
     ipl_cli paper --quick --csv-dir plots *)

open Cmdliner

module Trace = Reftrace.Trace
module Trace_io = Reftrace.Trace_io
module Locality = Reftrace.Locality
module Sim = Iplsim.Ipl_simulator
module Sweep = Iplsim.Sweep
module Cost = Iplsim.Cost_model
module Driver = Tpcc.Tpcc_driver
module Q = Workload.Queries

(* ---------------- gen ---------------- *)

let gen warehouses buffer_mb users transactions seed out =
  let r = Driver.generate_trace ~seed ~warehouses ~buffer_mb ~users ~transactions () in
  Trace_io.save r.Driver.trace out;
  Printf.printf "wrote %s: %d events (%d log records, %d page writes), %d-page database\n" out
    (Trace.length r.Driver.trace)
    (Trace.stats r.Driver.trace).Trace.total_logs
    (Trace.stats r.Driver.trace).Trace.page_writes
    r.Driver.db_pages

let warehouses_t =
  Arg.(value & opt int 1 & info [ "w"; "warehouses" ] ~doc:"TPC-C warehouses (10 = ~1GB).")

let buffer_mb_t = Arg.(value & opt int 20 & info [ "buffer-mb" ] ~doc:"Buffer pool size, MB.")
let users_t = Arg.(value & opt int 10 & info [ "users" ] ~doc:"Simulated users (names the trace).")

let transactions_t =
  Arg.(value & opt int 5000 & info [ "n"; "transactions" ] ~doc:"Transactions to run.")

let seed_t = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let out_t =
  Arg.(value & opt string "tpcc.trace" & info [ "o"; "output" ] ~doc:"Output trace file.")

let gen_cmd =
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a TPC-C update-reference trace (Section 4.2.1).")
    Term.(const gen $ warehouses_t $ buffer_mb_t $ users_t $ transactions_t $ seed_t $ out_t)

(* ---------------- stats ---------------- *)

let trace_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Trace file.")

(* Figure 4's measurements of a trace: the three skews and the distinct
   pages / erase units (15 pages each) in every window of 16 writes. *)
type locality = {
  log_refs : Locality.skew;
  page_writes : Locality.skew;
  erases : Locality.skew;
  window_pages : float;
  window_eus : float;
}

let locality trace =
  {
    log_refs = Locality.log_reference_skew trace ~top:2000;
    page_writes = Locality.page_write_skew trace ~top:2000;
    erases = Locality.erase_skew trace ~top:100 ~pages_per_eu:15;
    window_pages = Locality.sliding_window_distinct trace ~window:16 `Pages;
    window_eus = Locality.sliding_window_distinct trace ~window:16 (`Erase_units 15);
  }

let stats file =
  let trace = Trace_io.load file in
  Printf.printf "%s: %d events over a %d-page database\n" (Trace.name trace)
    (Trace.length trace) (Trace.db_pages trace);
  Format.printf "%a@." Trace.pp_stats (Trace.stats trace);
  let l = locality trace in
  let show label s = Format.printf "  %-26s %a@." label Locality.pp_skew s in
  show "log references" l.log_refs;
  show "physical page writes" l.page_writes;
  show "erases (15 pages/unit)" l.erases;
  Printf.printf "  window-16 distinct pages: %.2f, erase units: %.2f\n" l.window_pages
    l.window_eus

let table4 trace =
  Paper.section "Table 4: update log statistics of the 1G.20M.100u trace";
  let s = Trace.stats trace in
  let row name (os : Trace.op_stats) total paper =
    Printf.printf "  %-8s %9d (%5.2f%%)  avg %6.1f   (paper: %s)\n" name os.Trace.occurrences
      (100.0 *. float_of_int os.Trace.occurrences /. float_of_int (max 1 total))
      os.Trace.avg_length paper
  in
  row "Insert" s.Trace.insert s.Trace.total_logs "86902 (11.08%) avg 43.5";
  row "Delete" s.Trace.delete s.Trace.total_logs "284 (0.06%) avg 20.0";
  row "Update" s.Trace.update s.Trace.total_logs "697092 (88.88%) avg 49.4";
  Printf.printf "  %-8s %9d (100.0%%)  avg %6.1f   (paper: 784278, avg 48.7)\n" "Total"
    s.Trace.total_logs s.Trace.avg_log_length;
  Printf.printf "  physical page writes: %d   (paper: 625527)\n" s.Trace.page_writes

let figure4 ~csv_dir trace =
  Paper.section "Figure 4: TPC-C update locality (1G.20M.100u trace)";
  let l = locality trace in
  let series label (s : Locality.skew) paper_note =
    Printf.printf "  %-34s top-%d share %5.1f%%, gini %.3f, %d distinct keys\n" label
      (Array.length s.Locality.top_counts)
      (100.0 *. s.Locality.top_share)
      s.Locality.gini s.Locality.distinct;
    let pick i =
      if i < Array.length s.Locality.top_counts then s.Locality.top_counts.(i) else 0
    in
    Printf.printf "    hottest keys: #1=%d #10=%d #100=%d #500=%d #2000=%d  %s\n" (pick 0)
      (pick 9) (pick 99) (pick 499) (pick 1999) paper_note
  in
  series "(a) log references by page" l.log_refs "(paper: heavily skewed)";
  series "(b) physical page writes" l.page_writes
    "(paper: top 2000 pages take 29% of 625527 writes)";
  series "(c) erases by erase unit" l.erases "(paper: clearly skewed across units)";
  Paper.with_csv csv_dir "fig4.csv" (fun oc ->
      output_string oc "rank,log_refs,page_writes\n";
      let a = l.log_refs.Locality.top_counts and b = l.page_writes.Locality.top_counts in
      for i = 0 to 1999 do
        Printf.fprintf oc "%d,%d,%d\n" (i + 1)
          (if i < Array.length a then a.(i) else 0)
          (if i < Array.length b then b.(i) else 0)
      done);
  Printf.printf
    "  sliding window of 16 physical writes: %.2f/16 distinct pages (%.1f%%), %.2f/16 \
     distinct erase units (%.1f%%)\n"
    l.window_pages
    (100.0 *. l.window_pages /. 16.0)
    l.window_eus
    (100.0 *. l.window_eus /. 16.0);
  Paper.note "paper: 99.9%% distinct pages, 93.1%% (14.89/16) distinct erase units"

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"Table 4 / Figure 4 style analysis of a trace.")
    Term.(const stats $ trace_arg)

(* ---------------- simulate ---------------- *)

(* Algorithm 2 over [trace] and its t_IPL cost. [tau_s] flushes the
   in-memory log sector after a fixed record count (the paper's
   pseudo-code) instead of byte-accurate fill. *)
let simulate_trace ?(log_region_kb = Sim.default_params.Sim.log_region / 1024)
    ?(flush_empty = false) ?tau_s trace =
  let params =
    {
      Sim.default_params with
      Sim.log_region = log_region_kb * 1024;
      fill_policy = (match tau_s with None -> `Bytes | Some n -> `Count n);
      flush_empty_on_evict = flush_empty;
    }
  in
  let r = Sim.run ~params trace in
  (r, Cost.t_ipl ~sector_writes:r.Sim.sector_writes ~merges:r.Sim.merges ())

let simulate file log_region_kb tau_s flush_empty =
  let r, t_ipl = simulate_trace ~log_region_kb ~flush_empty ?tau_s (Trace_io.load file) in
  Format.printf "%a@." Sim.pp_result r;
  Printf.printf "t_IPL = %.1f s;  t_Conv(0.9) = %.1f s;  t_Conv(0.5) = %.1f s\n" t_ipl
    (Cost.t_conv ~page_writes:r.Sim.page_write_events ~alpha:0.9 ())
    (Cost.t_conv ~page_writes:r.Sim.page_write_events ~alpha:0.5 ())

let table5 (study : Paper.study) =
  Paper.section "Table 5: update log records vs flash sector writes (8 KB log region)";
  let row trace paper =
    let r, _ = simulate_trace trace in
    Printf.printf "  %-14s %9d logs -> %8d sector writes   (paper: %s)\n" (Trace.name trace)
      r.Sim.log_records r.Sim.sector_writes paper
  in
  row study.Paper.trace_100m "79136 -> 46893";
  row (Paper.trace_1g_40m study) "784278 -> 594694";
  row (Paper.trace_1g_20m study) "785535 -> 559391"

let ablation_fill_policy trace =
  Paper.section
    "Ablation: in-memory log sector fill policy (byte-accurate vs tau_s record count)";
  List.iter
    (fun (tau_s, label) ->
      let r, t = simulate_trace ?tau_s trace in
      Printf.printf "  %-26s %10d sector writes %8d merges  t_IPL %8.1f s\n" label
        r.Sim.sector_writes r.Sim.merges t)
    [
      (None, "byte-accurate (engine)");
      (Some 10, "tau_s = 10 (paper's average)");
      (Some 5, "tau_s = 5");
      (Some 20, "tau_s = 20");
    ]

let log_region_t =
  Arg.(value & opt int 8 & info [ "log-region-kb" ] ~doc:"Log region per 128KB erase unit, KB.")

let tau_s_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "tau-s" ] ~doc:"Flush after a fixed record count (paper's pseudo-code) instead of byte-accurate fill.")

let flush_empty_t =
  Arg.(value & flag & info [ "flush-empty" ] ~doc:"Emit a sector write on every eviction, even with no pending records.")

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run the Algorithm 2 IPL simulator over a trace.")
    Term.(const simulate $ trace_arg $ log_region_t $ tau_s_t $ flush_empty_t)

(* ---------------- sweep ---------------- *)

let sweep_csv_header = "log_region_kb,merges,sector_writes,t_ipl_s,db_size_mb\n"

(* One CSV row per log-region size, prefixed by the trace name when
   several traces share a file. *)
let sweep_csv ?trace oc points =
  List.iter
    (fun (p : Sweep.point) ->
      Option.iter (Printf.fprintf oc "%s,") trace;
      Printf.fprintf oc "%d,%d,%d,%.2f,%d\n" (p.Sweep.log_region / 1024)
        p.Sweep.result.Sim.merges p.Sweep.result.Sim.sector_writes p.Sweep.t_ipl
        (p.Sweep.db_size / 1024 / 1024))
    points

let sweep_table ~indent ~merges_width points =
  Printf.printf "%s%-10s %10s %12s %12s %10s\n" indent "log region" "merges" "sector wr"
    "t_IPL (s)" "DB size";
  List.iter
    (fun (p : Sweep.point) ->
      Printf.printf "%s%6d KB %*d %12d %12.1f %7d MB\n" indent (p.Sweep.log_region / 1024)
        merges_width p.Sweep.result.Sim.merges p.Sweep.result.Sim.sector_writes p.Sweep.t_ipl
        (p.Sweep.db_size / 1024 / 1024))
    points

let sweep file csv =
  let points = Sweep.log_region_sweep (Trace_io.load file) in
  if csv then begin
    print_string sweep_csv_header;
    sweep_csv stdout points
  end
  else sweep_table ~indent:"" ~merges_width:12 points

let figures_5_and_6 ~csv_dir (study : Paper.study) =
  Paper.section
    "Figure 5: merges vs log-region size / Figure 6: estimated write time and space";
  let sweeps =
    List.map
      (fun trace -> (Trace.name trace, Sweep.log_region_sweep trace))
      [ Paper.trace_1g_20m study; Paper.trace_1g_40m study; study.Paper.trace_100m ]
  in
  List.iter
    (fun (name, points) ->
      Printf.printf "  %s\n" name;
      sweep_table ~indent:"    " ~merges_width:10 points)
    sweeps;
  Paper.with_csv csv_dir "fig5_6.csv" (fun oc ->
      output_string oc ("trace," ^ sweep_csv_header);
      List.iter (fun (trace, points) -> sweep_csv ~trace oc points) sweeps);
  Paper.note "paper: merges drop steeply as the log region grows; t_IPL follows (Fig 6a)";
  Paper.note "while the database's flash footprint grows towards 2x (Fig 6b)"

let csv_t = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV (plot-ready) output.")

let sweep_cmd =
  Cmd.v
    (Cmd.info "sweep" ~doc:"Figures 5/6: sweep the log-region size over a trace.")
    Term.(const sweep $ trace_arg $ csv_t)

(* ---------------- replay ---------------- *)

(* Replay [trace]'s write stream on one storage design, each baseline on
   its own non-materializing chip sized to the trace's database (IPL runs
   Algorithm 2 and its t_IPL model). Returns simulated seconds, erases
   (merges for IPL) and the log-structured store's GC page moves. *)
let replay_design trace design =
  let db_page_size = Ipl_core.Ipl_config.default.Ipl_core.Ipl_config.page_size in
  let blocks = (Trace.db_pages trace / 16 * 115 / 100) + 32 in
  let chip =
    Flash_sim.Flash_chip.create
      (Flash_sim.Flash_config.default ~num_blocks:blocks ~materialize:false ())
  in
  let on device =
    let time = Baseline.Replay.run trace device in
    (time, (Flash_sim.Flash_chip.stats chip).Flash_sim.Flash_stats.block_erases)
  in
  match design with
  | "ftl" ->
      let ftl = Ftl.Block_ftl.create chip ~page_size:db_page_size in
      Ftl.Block_ftl.format ftl;
      let time, erases = on (Ftl.Block_ftl.device ftl) in
      (time, erases, 0)
  | "lfs" ->
      let lfs = Baseline.Lfs_store.create chip ~page_size:db_page_size in
      Baseline.Lfs_store.format lfs;
      let time, erases = on (Baseline.Lfs_store.device lfs) in
      (time, erases, (Baseline.Lfs_store.stats lfs).Baseline.Lfs_store.gc_page_moves)
  | "inplace" ->
      let ip = Baseline.Inplace_store.create chip ~page_size:db_page_size in
      Baseline.Inplace_store.format ip;
      let time, erases = on (Baseline.Inplace_store.device ip) in
      (time, erases, 0)
  | "ipl" ->
      let r, t_ipl = simulate_trace trace in
      (t_ipl, r.Sim.merges, 0)
  | other -> failwith (Printf.sprintf "unknown design %S (ftl|lfs|inplace|ipl)" other)

let replay file design =
  let trace = Trace_io.load file in
  let time, erases, _ = replay_design trace design in
  Printf.printf "%s on %s: %.1f s, %d erases/merges\n" design (Trace.name trace) time erases

let ablation_baseline_replay trace =
  Paper.section "Ablation: one TPC-C write stream on four flash designs";
  Printf.printf "  %-34s %10s %10s\n" "design" "time (s)" "erases";
  List.iter
    (fun (design, label) ->
      let time, erases, gc_moves = replay_design trace design in
      Printf.printf "  %-34s %10.1f %10d" label time erases;
      if design = "lfs" then Printf.printf "   (+%d GC page moves)" gc_moves;
      print_newline ())
    [
      ("inplace", "in-place update on raw flash");
      ("ftl", "conventional behind DRAM-FTL SSD");
      ("lfs", "log-structured page store");
      ("ipl", "in-page logging (t_IPL)");
    ];
  Paper.note "%d physical page writes replayed onto a %d-page database"
    (Trace.stats trace).Trace.page_writes (Trace.db_pages trace)

let design_t =
  Arg.(
    value
    & opt string "ipl"
    & info [ "design" ] ~doc:"Storage design: ipl, ftl (DRAM-buffered SSD), lfs, or inplace.")

let replay_cmd =
  Cmd.v
    (Cmd.info "replay" ~doc:"Replay a trace's write stream on a storage design.")
    Term.(const replay $ trace_arg $ design_t)

(* ---------------- faultcheck ---------------- *)

(* [--jobs 0] (the default) defers to IPL_JOBS, then to 1; any request is
   clamped to the machine's recommended domain count. Reports, digests
   and JSON (outside wall_clock) are byte-identical for every value. *)
let resolve_jobs cli = Par.Par_config.resolve ~cli ()

let jobs_t =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ]
        ~doc:
          "Worker domains for the parallel paths (crash-point campaigns, baseline \
           replays, session read resolution, restart sweep). 0 (default): use the \
           $(b,IPL_JOBS) environment variable if set, else 1 — fully serial, no \
           domains. Clamped to the machine's recommended domain count. The results \
           are byte-identical for every value; only wall-clock time changes.")

let crash_campaign ops sample lazy_mode seed transactions pages no_tear broken sessions jobs =
  if broken && sessions > 0 then begin
    prerr_endline
      "faultcheck: --broken needs the serial driver; the session scheduler owns the \
       flush policy (drop --sessions)";
    exit 2
  end;
  let transactions = Option.value ~default:200 transactions in
  let spec = { Fault.Workload.default with Fault.Workload.seed; transactions; pages } in
  let report =
    Fault.Campaign.run ~tear:(not no_tear) ~broken ~max_ops:ops ~sample ~lazy_mode ~sessions
      ~jobs spec
  in
  if sessions > 0 then Printf.printf "session campaign: %d sessions\n" sessions;
  if lazy_mode then
    Printf.printf "lazy-recovery mode: every crash point checked lazy == eager\n";
  Format.printf "%a@." Fault.Campaign.pp_report report;
  let nviol = List.length report.Fault.Campaign.violations in
  if broken then
    if nviol > 0 then begin
      Printf.printf "broken-commit mode: checker caught the unsound configuration, as expected\n";
      exit 0
    end
    else begin
      Printf.printf "broken-commit mode: checker FAILED to catch the unsound configuration\n";
      exit 1
    end
  else if nviol > 0 then exit 1

let resilience_campaign profile spares seed transactions =
  if profile = "remap-crash" then begin
    match Fault.Campaign.run_remap_crash ~spares ~seed () with
    | [] -> Printf.printf "remap-crash: every crash point recovered cleanly\n"
    | l ->
        List.iter
          (fun (delta, vs) ->
            Printf.printf "crash %d ops after remap trigger:\n" delta;
            List.iter (fun v -> Printf.printf "- %s\n" v) vs)
          l;
        exit 1
  end
  else
    match Fault.Campaign.profile_of_string profile with
    | None ->
        Printf.eprintf
          "unknown profile %S (expected flaky, program, erase, wearout or remap-crash)\n"
          profile;
        exit 2
    | Some p ->
        let transactions = Option.value ~default:0 transactions in
        let r = Fault.Campaign.run_resilience ~spares ~transactions ~seed p in
        Format.printf "%a@." Fault.Campaign.pp_resilience_report r;
        if not (Fault.Campaign.resilience_ok r) then exit 1

let faultcheck ops sample lazy_mode seed transactions pages no_tear broken profile spares
    sessions jobs =
  let jobs = resolve_jobs jobs in
  match profile with
  | None ->
      crash_campaign ops sample lazy_mode seed transactions pages no_tear broken sessions jobs
  | Some profile -> resilience_campaign profile spares seed transactions

let ops_t =
  Arg.(
    value
    & opt int 0
    & info [ "ops" ]
        ~doc:"Consider only the first $(docv) flash operations after setup as crash points (0 = all).")

let sample_t =
  Arg.(
    value
    & opt int 0
    & info [ "sample" ] ~doc:"Test only $(docv) crash points, spread evenly (0 = every point).")

let lazy_t =
  Arg.(
    value & flag
    & info [ "lazy" ]
        ~doc:
          "Lazy-recovery equivalence mode: restart every crashed chip with on-demand page \
           repair (fuzzy checkpoints enabled) and require its logical digest to match an \
           eagerly recovered twin, before and after the repair drain.")

let fc_transactions_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "n"; "transactions" ]
        ~doc:"Transactions in the workload (default: 200, or the profile's own length).")

let fc_pages_t = Arg.(value & opt int 6 & info [ "pages" ] ~doc:"Data pages in the workload.")

let no_tear_t =
  Arg.(
    value & flag
    & info [ "no-tear" ] ~doc:"Fail cleanly before the fatal program instead of tearing it.")

let broken_t =
  Arg.(
    value & flag
    & info [ "broken" ]
        ~doc:"Self-test: disable commit-time log forcing and verify the checker flags the lost transactions (exits 0 only if it does).")

let profile_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ]
        ~doc:
          "Run a device-resilience campaign instead of the crash-point one: $(b,flaky) \
           (correctable/transient reads), $(b,program), $(b,erase) (random failures), \
           $(b,wearout) (to spare-pool exhaustion) or $(b,remap-crash) (power loss \
           mid-remap).")

let fc_sessions_t =
  Arg.(
    value & opt int 0
    & info [ "sessions" ]
        ~doc:
          "Crash-point campaign driver: 0 (default) runs the serial engine loop; N > 0 \
           runs the same transactions through N MVCC client sessions with group commit \
           (the session scheduler), checked against the commit-order-prefix oracle.")

let spares_t =
  Arg.(
    value & opt int 4
    & info [ "spares" ] ~doc:"Spare-pool size for $(b,--profile) campaigns.")

let faultcheck_cmd =
  Cmd.v
    (Cmd.info "faultcheck"
       ~doc:
         "Fault campaigns: crash at every flash operation and verify recovery against a \
          model oracle, or ($(b,--profile)) inject device failures against the bad-block \
          manager and verify zero data loss up to read-only degradation.")
    Term.(
      const faultcheck $ ops_t $ sample_t $ lazy_t $ seed_t $ fc_transactions_t
      $ fc_pages_t $ no_tear_t $ broken_t $ profile_t $ spares_t $ fc_sessions_t $ jobs_t)

(* ---------------- observe ---------------- *)

let obs_spec transactions seed quick =
  let base = if quick then Workload.Obs_bench.quick else Workload.Obs_bench.default in
  let base = match transactions with None -> base | Some n -> { base with Workload.Obs_bench.transactions = n } in
  { base with Workload.Obs_bench.seed }

let observe transactions seed quick tail json_out csv_out =
  let spec = obs_spec transactions seed quick in
  let r = Workload.Obs_bench.run ~spec () in
  let tracer = r.Workload.Obs_bench.tracer and metrics = r.Workload.Obs_bench.metrics in
  Printf.printf "workload: %d transactions, seed %d\n" spec.Workload.Obs_bench.transactions
    spec.Workload.Obs_bench.seed;
  Printf.printf "trace: %d events emitted, %d retained, %d dropped\n"
    (Obs.Tracer.emitted tracer) (Obs.Tracer.length tracer) (Obs.Tracer.dropped tracer);
  List.iter
    (fun kind ->
      let n = Obs.Tracer.count_kind tracer kind in
      if n > 0 then Printf.printf "  %-20s %8d\n" kind n)
    Obs.Event.kinds;
  if tail > 0 then begin
    let keep = ref [] and len = ref 0 in
    Obs.Tracer.iter
      (fun e ->
        keep := e :: !keep;
        incr len;
        if !len > tail then keep := List.filteri (fun i _ -> i < tail) !keep)
      tracer;
    Printf.printf "last %d events:\n" (min tail !len);
    List.iter
      (fun (e : Obs.Tracer.entry) ->
        Format.printf "  %6d %.6f %a@." e.Obs.Tracer.seq e.Obs.Tracer.time Obs.Event.pp
          e.Obs.Tracer.event)
      (List.rev !keep)
  end;
  print_string (Obs.Export.metrics_csv metrics);
  (match json_out with
  | None -> ()
  | Some path ->
      let doc =
        Ipl_util.Json.Obj
          [
            ("metrics", Obs.Export.metrics_json metrics);
            ("trace", Obs.Export.trace_json tracer);
          ]
      in
      Obs.Export.to_file path (Ipl_util.Json.to_string doc ^ "\n");
      Printf.printf "wrote %s\n" path);
  match csv_out with
  | None -> ()
  | Some path ->
      Obs.Export.to_file path (Obs.Export.trace_csv tracer);
      Printf.printf "wrote %s\n" path

let obs_transactions_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "n"; "transactions" ] ~doc:"Transactions in the instrumented workload.")

let obs_quick_t = Arg.(value & flag & info [ "quick" ] ~doc:"Smaller workload for smoke runs.")

let tail_t =
  Arg.(value & opt int 0 & info [ "tail" ] ~doc:"Print the last $(docv) trace events.")

let obs_json_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~doc:"Write the full trace and metrics as JSON to $(docv).")

let obs_csv_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~doc:"Write the trace as CSV to $(docv).")

let observe_cmd =
  Cmd.v
    (Cmd.info "observe"
       ~doc:
         "Run the instrumented engine workload and dump its event trace and latency metrics \
          (lib/obs).")
    Term.(
      const observe $ obs_transactions_t $ seed_t $ obs_quick_t $ tail_t $ obs_json_t $ obs_csv_t)

(* ---------------- bench ---------------- *)

let bench transactions seed quick spares cache_bytes channels ways sessions restart json
    out jobs =
  let jobs = resolve_jobs jobs in
  let spec = obs_spec transactions seed quick in
  let spec = { spec with Workload.Obs_bench.spare_blocks = spares; channels; ways; sessions } in
  let spec =
    match cache_bytes with
    | None -> spec
    | Some b -> { spec with Workload.Obs_bench.log_cache_bytes = b }
  in
  let r = Workload.Obs_bench.run ~spec ~jobs () in
  let member = Ipl_util.Json.member in
  let backends =
    match member "backends" r.Workload.Obs_bench.json with
    | Some (Ipl_util.Json.List l) -> l
    | _ -> []
  in
  Printf.printf "%-10s %14s %14s %12s\n" "backend" "flash time (s)" "erases" "writes";
  List.iter
    (fun b ->
      let str k = match member k b with Some (Ipl_util.Json.String s) -> s | _ -> "?" in
      let flash = Option.value ~default:Ipl_util.Json.Null (member "flash" b) in
      let num k =
        match member k flash with
        | Some (Ipl_util.Json.Int n) -> float_of_int n
        | Some (Ipl_util.Json.Float f) -> f
        | _ -> Float.nan
      in
      Printf.printf "%-10s %14.4f %14.0f %12.0f\n" (str "name") (num "elapsed_s")
        (num "block_erases") (num "page_writes"))
    backends;
  (let c = r.Workload.Obs_bench.concurrency in
   if c.Workload.Obs_bench.sessions > 0 then
     Printf.printf
       "sessions %d: %d committed, %d aborted (%d conflicts), %d commit batches \
        (mean %.2f, max %d), %.0f txn/s simulated\n"
       c.Workload.Obs_bench.sessions c.Workload.Obs_bench.committed
       (c.Workload.Obs_bench.aborted + c.Workload.Obs_bench.conflict_aborts)
       c.Workload.Obs_bench.conflict_aborts c.Workload.Obs_bench.commit_batches
       (if c.Workload.Obs_bench.commit_batches > 0 then
          float_of_int c.Workload.Obs_bench.batched_commits
          /. float_of_int c.Workload.Obs_bench.commit_batches
        else 0.0)
       c.Workload.Obs_bench.max_commit_batch c.Workload.Obs_bench.throughput_tps);
  let restart_points =
    if restart then begin
      let pts = Workload.Restart_bench.run ~jobs () in
      Format.printf "%a@." Workload.Restart_bench.pp pts;
      Some pts
    end
    else None
  in
  if json then begin
    let extra =
      match restart_points with
      | None -> []
      | Some pts -> [ ("restart", Workload.Restart_bench.to_json pts) ]
    in
    Workload.Obs_bench.write_json ~extra out r;
    Printf.printf "wrote %s\n" out
  end

let bench_json_t =
  Arg.(value & flag & info [ "json" ] ~doc:"Also write the full benchmark document as JSON.")

let bench_restart_t =
  Arg.(
    value & flag
    & info [ "restart" ]
        ~doc:
          "Also run the restart-availability benchmark: simulated time to the first \
           committed transaction after a crash, eager full-scan recovery versus lazy \
           (fuzzy-checkpoint) recovery, over three database sizes. With $(b,--json) the \
           results are appended to the document under $(i,restart).")

let bench_spares_t =
  Arg.(
    value & opt int 0
    & info [ "spares" ]
        ~doc:
          "Run the IPL engine with an $(docv)-block spare pool (bad-block manager); its \
           resilience counters appear in the JSON backend stats.")

let bench_cache_bytes_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-bytes" ]
        ~doc:
          "DRAM log-record cache budget in bytes for the IPL engine (0 disables the \
           cache); defaults to the engine's configured budget.")

let bench_channels_t =
  Arg.(
    value & opt int 1
    & info [ "channels" ]
        ~doc:
          "Flash channels of the IPL engine's device; the logical results \
           (and the JSON document's logical_digest) are identical for every \
           value, only the simulated flash time changes.")

let bench_ways_t =
  Arg.(value & opt int 1 & info [ "ways" ] ~doc:"Chips per channel (total chips = channels x ways).")

let bench_sessions_t =
  Arg.(
    value & opt int 0
    & info [ "sessions" ]
        ~doc:
          "Run the workload through $(docv) concurrent MVCC client sessions with group \
           commit (0: the serial engine loop). One session reproduces the serial \
           logical_digest bit-for-bit; more sessions batch commits into fewer device \
           barriers and report conflict/abort rates in the JSON concurrency section.")

let bench_out_t =
  Arg.(
    value
    & opt string "BENCH_ipl.json"
    & info [ "o"; "output" ] ~doc:"Where $(b,--json) writes the document.")

let bench_cmd =
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Instrumented three-backend benchmark (IPL vs sequential-logging vs in-place); \
          $(b,--json) writes the schema-stable BENCH_ipl.json.")
    Term.(
      const bench $ obs_transactions_t $ seed_t $ obs_quick_t $ bench_spares_t
      $ bench_cache_bytes_t $ bench_channels_t $ bench_ways_t $ bench_sessions_t
      $ bench_restart_t $ bench_json_t $ bench_out_t $ jobs_t)

(* ---------------- chansweep ---------------- *)

let chansweep transactions seed quick counts csv jobs =
  let jobs = resolve_jobs jobs in
  let spec = obs_spec transactions seed quick in
  (* Each sweep point runs sequentially with the parallelism {e inside}
     the point (replays, session reads): nesting a pool of points over
     the bench's own pool would deadlock-by-design (Nested_parallelism). *)
  let run ~channels =
    (Workload.Obs_bench.run ~spec:{ spec with Workload.Obs_bench.channels } ~jobs ())
      .Workload.Obs_bench.json
  in
  let points = Sweep.channel_sweep ~channel_counts:counts ~run () in
  let digests =
    List.sort_uniq compare (List.map (fun p -> p.Sweep.logical_digest) points)
  in
  if List.length digests > 1 then
    failwith "chansweep: logical digest differs across channel counts";
  let q cls f p =
    match List.assoc_opt cls p.Sweep.class_latency with
    | Some (p50, p99) -> f (p50, p99)
    | None -> Float.nan
  in
  if csv then begin
    Printf.printf
      "channels,elapsed_s,speedup,fg_p50_ms,fg_p99_ms,log_p50_ms,log_p99_ms,merge_p50_ms,merge_p99_ms
";
    List.iter
      (fun (p : Sweep.channel_point) ->
        Printf.printf "%d,%.4f,%.2f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f
" p.Sweep.channels
          p.Sweep.elapsed_s p.Sweep.speedup
          (1e3 *. q "foreground" fst p)
          (1e3 *. q "foreground" snd p)
          (1e3 *. q "log_flush" fst p)
          (1e3 *. q "log_flush" snd p)
          (1e3 *. q "merge" fst p)
          (1e3 *. q "merge" snd p))
      points
  end
  else begin
    Printf.printf "%-9s %11s %8s %18s %18s %18s
" "channels" "elapsed (s)" "speedup"
      "fg p50/p99 (ms)" "log p50/p99 (ms)" "merge p50/p99 (ms)";
    List.iter
      (fun (p : Sweep.channel_point) ->
        Printf.printf "%-9d %11.4f %7.2fx %9.2f /%6.2f %9.2f /%6.2f %9.2f /%6.2f
"
          p.Sweep.channels p.Sweep.elapsed_s p.Sweep.speedup
          (1e3 *. q "foreground" fst p)
          (1e3 *. q "foreground" snd p)
          (1e3 *. q "log_flush" fst p)
          (1e3 *. q "log_flush" snd p)
          (1e3 *. q "merge" fst p)
          (1e3 *. q "merge" snd p))
      points;
    Printf.printf "logical digest: %s (identical at every channel count)
"
      (match digests with d :: _ -> d | [] -> "?")
  end

let chansweep_counts_t =
  Arg.(
    value
    & opt (list int) [ 1; 2; 4; 8 ]
    & info [ "counts" ] ~doc:"Comma-separated channel counts to sweep.")

let chansweep_cmd =
  Cmd.v
    (Cmd.info "chansweep"
       ~doc:
         "Channel-scaling sweep: run the bench workload at several channel counts,           report makespan, speedup and per-op-class latency quantiles, and verify the           logical digest is geometry-independent.")
    Term.(
      const chansweep $ obs_transactions_t $ seed_t $ obs_quick_t $ chansweep_counts_t
      $ csv_t $ jobs_t)

(* ---------------- queries ---------------- *)

let paper_table3 = function
  | Q.Q1 -> (14.04, 11.02)
  | Q.Q2 -> (61.07, 12.05)
  | Q.Q3 -> (172.01, 13.05)
  | Q.Q4 -> (34.03, 26.01)
  | Q.Q5 -> (151.92, 61.76)
  | Q.Q6 -> (340.72, 369.88)

(* Tables 3 and 2, measured next to the paper's figures. *)
let queries csv_dir =
  Paper.section "Table 3: read and write query performance (seconds)";
  let results = Q.table3 () in
  let flash_of q =
    let _, _, f = List.find (fun (q', _, _) -> q' = q) results in
    f
  in
  Printf.printf "  %-28s %10s %10s   %10s %10s\n" "" "disk" "(paper)" "flash" "(paper)";
  List.iter
    (fun (q, (d : Q.measurement), (f : Q.measurement)) ->
      let pd, pf = paper_table3 q in
      Printf.printf "  %-28s %10.2f %10.2f   %10.2f %10.2f\n" (Q.name q) d.Q.elapsed pd
        f.Q.elapsed pf)
    results;
  Paper.note
    "flash Q4/Q5/Q6 erase-unit RMW cycles: %d / %d / %d (paper's per-unit analysis: 4000 \
     for Q4, 64000 for Q6)"
    (flash_of Q.Q4).Q.erases (flash_of Q.Q5).Q.erases (flash_of Q.Q6).Q.erases;
  Paper.note
    "flash Q4/Q5/Q6 DRAM-segment evictions: %d / %d / %d (paper counts Q5 as 8000 'erases')"
    (flash_of Q.Q4).Q.segment_evictions (flash_of Q.Q5).Q.segment_evictions
    (flash_of Q.Q6).Q.segment_evictions;
  Paper.section "Table 2: random-to-sequential performance ratios";
  let pp kind medium label paper =
    let lo, hi = Q.random_to_sequential_ratios results kind medium in
    Printf.printf "  %-24s %6.1f ~ %6.1f   (paper: %s)\n" label lo hi paper
  in
  pp `Read `Disk "disk, read workload" "4.3 ~ 12.3";
  pp `Write `Disk "disk, write workload" "4.5 ~ 10.0";
  pp `Read `Flash "flash, read workload" "1.1 ~ 1.2";
  pp `Write `Flash "flash, write workload" "2.4 ~ 14.2";
  Paper.with_csv csv_dir "table3.csv" (fun oc ->
      output_string oc "query,disk_s,disk_paper_s,flash_s,flash_paper_s\n";
      List.iter
        (fun (q, (d : Q.measurement), (f : Q.measurement)) ->
          let pd, pf = paper_table3 q in
          Printf.fprintf oc "%s,%.2f,%.2f,%.2f,%.2f\n" (Q.name q) d.Q.elapsed pd f.Q.elapsed
            pf)
        results)

let queries_cmd =
  Cmd.v
    (Cmd.info "queries"
       ~doc:"Tables 2/3: run Q1-Q6 on the disk and flash-SSD models, next to the paper's figures.")
    Term.(const queries $ const None)

(* ---------------- paper ---------------- *)

let paper quick csv_dir =
  (* Large retained heaps (the 1 GB logical database) behave much better
     with a roomier GC. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024; space_overhead = 200 };
  Printf.printf "In-Page Logging reproduction benchmark%s\n" (if quick then " (--quick)" else "");
  Paper.table1 ();
  queries csv_dir;
  let study = Paper.generate_study ~quick in
  let trace_20m = Paper.trace_1g_20m study in
  table4 trace_20m;
  figure4 ~csv_dir trace_20m;
  table5 study;
  figures_5_and_6 ~csv_dir study;
  Paper.figure7 ~csv_dir study;
  Paper.table6 ();
  ablation_baseline_replay trace_20m;
  ablation_fill_policy trace_20m;
  Paper.ablation_wear ();
  Paper.ablation_recovery_overhead ();
  Paper.ablation_read_amplification ();
  Paper.ablation_group_commit ();
  Paper.ablation_background_merge ();
  Paper.ablation_selective_merge_threshold ();
  Printf.printf "\nDone.\n"

let csv_dir_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv-dir" ] ~docv:"DIR"
        ~doc:"Also write plot-ready table3/fig4/fig5_6/fig7 CSV files into $(docv).")

let paper_cmd =
  Cmd.v
    (Cmd.info "paper"
       ~doc:
         "Regenerate every table and figure of the paper's evaluation (Sections 2.2.1, 4.1 \
          and 4.2) next to the paper's values, plus the ablation studies.")
    Term.(const paper $ obs_quick_t $ csv_dir_t)

(* ---------------- lint / sema ---------------- *)

let lint json_out rules roots = exit (Lint.Lint_driver.main ?json_out ~rules roots)

let lint_roots_t =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"DIR"
        ~doc:"Directories (or files) to lint; defaults to lib and bin.")

let json_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Also write the findings as machine-readable JSON to $(docv) (- for stdout).")

let rules_t =
  Arg.(
    value & opt_all string []
    & info [ "rule" ] ~docv:"ID" ~doc:"Only report findings of rule $(docv) (repeatable).")

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static-analysis gate: flash-safety and layering invariants (layering, flash-call, \
          no-silent-swallow, no-ignored-flash-result, no-magic-geometry, banned-construct, \
          mli-coverage). Exits 1 on any error-severity finding.")
    Term.(const lint $ json_out_t $ rules_t $ lint_roots_t)

let sema json_out rules roots = exit (Sema.Sema_driver.main ?json_out ~rules roots)

let sema_cmd =
  Cmd.v
    (Cmd.info "sema"
       ~doc:
         "Typed dataflow gate over the dune-emitted .cmt files: tag-leak, unchecked-result, \
          exception-escape and determinism checking (sema-tag-leak, sema-unchecked-result, \
          sema-exception-escape, sema-determinism). Run after `dune build` so the build \
          context is populated. Exits 1 on any error-severity finding.")
    Term.(const sema $ json_out_t $ rules_t $ lint_roots_t)

(* ---------------- main ---------------- *)

let main_cmd =
  Cmd.group
    (Cmd.info "ipl_cli" ~version:"1.0"
       ~doc:"In-page logging (SIGMOD 2007) reproduction toolkit.")
    [
      gen_cmd;
      stats_cmd;
      simulate_cmd;
      sweep_cmd;
      replay_cmd;
      faultcheck_cmd;
      observe_cmd;
      bench_cmd;
      chansweep_cmd;
      queries_cmd;
      paper_cmd;
      lint_cmd;
      sema_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
