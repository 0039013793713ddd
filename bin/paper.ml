(* The paper's evaluation sections that have no other subcommand behind
   them: Table 1, the TPC-C trace study, Figure 7, Table 6 and the
   engine ablation studies called out in DESIGN.md. [ipl_cli paper]
   runs them in order next to the sections shared with [queries],
   [stats], [simulate], [sweep] and [replay]. *)

module Chip = Flash_sim.Flash_chip
module FConfig = Flash_sim.Flash_config
module FStats = Flash_sim.Flash_stats
module Trace = Reftrace.Trace
module Driver = Tpcc.Tpcc_driver
module Txn = Tpcc.Tpcc_txn
module Sim = Iplsim.Ipl_simulator
module Sweep = Iplsim.Sweep
module Engine = Ipl_core.Ipl_engine
module Store = Ipl_core.Ipl_storage
module Config = Ipl_core.Ipl_config

(* The ablations run on healthy simulated devices: any typed engine
   error here is a bug, so unwrap loudly. *)
let eok = function
  | Ok v -> v
  | Error e -> failwith ("paper: " ^ Engine.error_to_string e)

let section title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

let note fmt = Printf.printf ("  " ^^ fmt ^^ "\n")

let elapsed_timer () =
  let t0 = Ipl_util.Clock.now_s () in
  fun () -> Ipl_util.Clock.now_s () -. t0

(* [--csv-dir DIR]: also dump the plot-ready data file [name] into DIR. *)
let with_csv csv_dir name f =
  match csv_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let oc = open_out (Filename.concat dir name) in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

(* ------------------------------------------------------------------ *)
(* Table 1: device access speeds                                       *)

let table1 () =
  section "Table 1: Access speed, magnetic disk vs NAND flash";
  let f = FConfig.default () in
  Printf.printf "  %-22s %12s %12s %12s\n" "Media" "Read" "Write" "Erase";
  Printf.printf "  %-22s %9.1f ms %9.1f ms %12s   (2 KB)\n" "Magnetic disk (model)" 12.7 13.7
    "N/A";
  Printf.printf "  %-22s %9.0f us %9.0f us %9.1f ms   (2 KB / 128 KB)\n" "NAND flash (model)"
    (f.FConfig.t_read_page *. 1e6)
    (f.FConfig.t_write_page *. 1e6)
    (f.FConfig.t_erase_block *. 1e3);
  note "paper: disk 12.7/13.7 ms; flash 80 us / 200 us / 1.5 ms (by construction)"

(* ------------------------------------------------------------------ *)
(* TPC-C trace generation                                              *)

type study = {
  trace_100m : Trace.t;
  series_1g : (int * Trace.t) list;  (* buffer MB -> trace *)
  buf_small : int;  (* the "20MB" point of this run *)
  buf_medium : int;  (* the "40MB" point *)
}

(* [quick] scales the study down (1 warehouse, small pools) for a fast
   smoke run; otherwise it reproduces the paper's 1 GB configuration. *)
let generate_study ~quick =
  section "TPC-C trace generation (stand-in for Hammerora, Section 4.2.1)";
  let warehouses, buffer_100m, buffer_mbs, tx_1g, tx_100m, users =
    if quick then (1, 2, [ 2; 4; 6; 8; 10 ], 3_000, 1_500, 10)
    else (10, 20, [ 20; 40; 60; 80; 100 ], 33_000, 3_400, 100)
  in
  let t = elapsed_timer () in
  let r100 =
    Driver.generate_trace ~warehouses:1 ~buffer_mb:buffer_100m ~users:10
      ~transactions:tx_100m ()
  in
  let s100 = Trace.stats r100.Driver.trace in
  note "%-14s %8d txns -> %7d log records, %6d page writes (%.0fs)"
    (Trace.name r100.Driver.trace) tx_100m s100.Trace.total_logs s100.Trace.page_writes
    (t ());
  let t = elapsed_timer () in
  let series =
    Driver.generate_trace_series ~warehouses ~users ~transactions:tx_1g ~buffer_mbs ()
  in
  List.iter
    (fun (_, trace) ->
      let s = Trace.stats trace in
      note "%-14s %8d txns -> %7d log records, %6d page writes" (Trace.name trace) tx_1g
        s.Trace.total_logs s.Trace.page_writes)
    series;
  note "1G series generated in %.0fs (database loaded once, %d pages)" (t ())
    (Trace.db_pages (snd (List.hd series)));
  {
    trace_100m = r100.Driver.trace;
    series_1g = series;
    buf_small = List.nth buffer_mbs 0;
    buf_medium = List.nth buffer_mbs 1;
  }

let trace_1g_20m study = List.assoc study.buf_small study.series_1g
let trace_1g_40m study = List.assoc study.buf_medium study.series_1g

(* ------------------------------------------------------------------ *)
(* Figure 7: varying buffer sizes                                      *)

let figure7 ~csv_dir study =
  section "Figure 7: IPL vs conventional server across buffer-pool sizes (1GB DB)";
  let series =
    List.map (fun (mb, trace) -> (Printf.sprintf "%dMB" mb, trace)) study.series_1g
  in
  let points = Sweep.buffer_series series in
  Printf.printf "  %-8s %12s %10s %12s %14s %14s\n" "buffer" "sector wr" "merges" "t_IPL (s)"
    "t_Conv a=0.9" "t_Conv a=0.5";
  List.iter
    (fun (p : Sweep.buffer_point) ->
      let conv a = List.assoc a p.Sweep.t_conv_by_alpha in
      Printf.printf "  %-8s %12d %10d %12.1f %14.1f %14.1f\n" p.Sweep.label
        p.Sweep.result.Sim.sector_writes p.Sweep.result.Sim.merges p.Sweep.t_ipl (conv 0.9)
        (conv 0.5))
    points;
  with_csv csv_dir "fig7.csv" (fun oc ->
      output_string oc "buffer,sector_writes,merges,t_ipl_s,t_conv_09_s,t_conv_05_s\n";
      List.iter
        (fun (p : Sweep.buffer_point) ->
          Printf.fprintf oc "%s,%d,%d,%.2f,%.2f,%.2f\n" p.Sweep.label
            p.Sweep.result.Sim.sector_writes p.Sweep.result.Sim.merges p.Sweep.t_ipl
            (List.assoc 0.9 p.Sweep.t_conv_by_alpha)
            (List.assoc 0.5 p.Sweep.t_conv_by_alpha))
        points);
  (match points with
  | p :: _ ->
      let conv = List.assoc 0.5 p.Sweep.t_conv_by_alpha in
      note "IPL advantage at the smallest pool: %.0fx vs alpha=0.5 conventional"
        (conv /. p.Sweep.t_ipl)
  | [] -> ());
  note "paper: IPL an order of magnitude faster than conventional even at alpha=0.5"

(* ------------------------------------------------------------------ *)
(* Table 6: taxonomy                                                   *)

let table6 () =
  section "Table 6: classification of database storage techniques";
  Printf.printf "  %-24s | %-30s | %-30s\n" "" "in-place update" "no in-place update";
  Printf.printf "  %s-+-%s-+-%s\n" (String.make 24 '-') (String.make 30 '-')
    (String.make 30 '-');
  Printf.printf "  %-24s | %-30s | %-30s\n" "mechanical latency" "traditional DBMS"
    "Postgres no-overwrite (disk)";
  Printf.printf "  %-24s | %-30s | %-30s\n" "" "  (disk_sim + baseline replay)" "";
  Printf.printf "  %-24s | %-30s | %-30s\n" "no mechanical latency" "PicoDBMS (EEPROM)"
    "in-page logging (ipl_core)";
  note "this repository implements the bottom-right cell plus the baselines around it"

(* ------------------------------------------------------------------ *)
(* Engine ablations                                                    *)

let insert_exn engine page data =
  ignore (eok (Engine.insert engine ~tx:Engine.no_txn ~page data) : int)

let update_exn engine ~tx page i width =
  eok (Engine.update engine ~tx ~page ~slot:0 (Bytes.of_string (Printf.sprintf "%0*d" width i)))

let ablation_wear () =
  section "Ablation: wear-aware vs naive free-unit allocation (IPL engine)";
  let run wear_aware =
    let chip = Chip.create (FConfig.default ~num_blocks:96 ()) in
    let config =
      { Config.default with Config.wear_aware_allocation = wear_aware; buffer_pages = 8 }
    in
    let engine = Engine.create ~config chip in
    let page = eok (Engine.allocate_page engine) in
    insert_exn engine page (Bytes.make 64 'x');
    for i = 1 to 30_000 do
      update_exn engine ~tx:Engine.no_txn page i 64
    done;
    eok (Engine.checkpoint engine);
    let wear = Chip.erase_counts chip in
    (* Skip the reserved system-log blocks at the front. *)
    let data_wear = Array.to_list (Array.sub wear 8 88) in
    let maxw = List.fold_left max 0 data_wear in
    let minw = List.fold_left min max_int data_wear in
    let total = List.fold_left ( + ) 0 data_wear in
    (* Endurance projection: the device dies when its hottest unit hits
       the 100k-cycle endurance (Section 2.2 of the paper). *)
    let endurance = (FConfig.default ()).FConfig.max_erase_cycles in
    let lifetime_workloads =
      if maxw = 0 then infinity else float_of_int endurance /. float_of_int maxw
    in
    Printf.printf
      "  %-12s erases total %6d, per-unit min %4d max %4d (spread %.2fx) -> endurance lasts \
       %.0fx this workload\n"
      (if wear_aware then "wear-aware" else "naive")
      total minw maxw
      (float_of_int maxw /. float_of_int (max 1 minw))
      lifetime_workloads
  in
  run true;
  run false

(* TPC-C on the engine at the ablations' reduced sizing. *)
let tpcc_run config =
  Driver.Engine_run.run ~config ~chip_blocks:768 ~transactions:2_000
    ~sizing:{ Txn.mini_sizing with Txn.customers = 120; items = 500; orders = 60 }
    ()

let ablation_recovery_overhead () =
  section "Ablation: cost of the Section 5 recovery extensions (TPC-C on the engine)";
  let run recovery =
    let config =
      { Config.default with Config.recovery_enabled = recovery; buffer_pages = 256 }
    in
    let t = elapsed_timer () in
    let s = Engine.stats (tpcc_run config).Driver.Engine_run.engine in
    let st = s.Engine.storage in
    Printf.printf
      "  recovery %-3s: %6d log-sector writes, %5d merges, %4d overflow sectors, flash time \
       %6.2fs (wall %.1fs)\n"
      (if recovery then "on" else "off")
      st.Store.log_sector_writes st.Store.merges st.Store.overflow_sector_writes
      s.Engine.flash.FStats.elapsed (t ())
  in
  run false;
  run true

let ablation_read_amplification () =
  section "Ablation: IPL read amplification vs log fill (the Section 3.1 trade-off)";
  (* Reading a page costs the data page plus every log sector in its erase
     unit. Measure the read cost as the log region fills, with the DRAM
     log cache off so every log sector comes from flash. *)
  let chip = Chip.create (FConfig.default ~num_blocks:64 ()) in
  let config = { Config.default with Config.buffer_pages = 4; log_cache_bytes = 0 } in
  let engine = Engine.create ~config chip in
  let page = eok (Engine.allocate_page engine) in
  insert_exn engine page (Bytes.make 64 'r');
  eok (Engine.checkpoint engine);
  let store = Engine.storage engine in
  Printf.printf "  %-18s %14s %16s\n" "log sectors used" "read cost" "vs clean page";
  let clean_cost = ref 0.0 in
  List.iter
    (fun target ->
      (* Fill the unit's log region up to [target] sectors. *)
      let eu = Store.eu_of_page store page in
      let have = Store.used_log_sectors store ~eu in
      for _ = have + 1 to target do
        Store.flush_log store ~page
          [
            {
              Ipl_core.Log_record.txid = 0;
              page;
              op =
                Ipl_core.Log_record.Update_range
                  { slot = 0; offset = 0; before = Bytes.make 8 'r'; after = Bytes.make 8 'r' };
            };
          ]
      done;
      let eu = Store.eu_of_page store page in
      let used = Store.used_log_sectors store ~eu in
      let before = Chip.elapsed chip in
      ignore (Store.read_page store page);
      let cost = Chip.elapsed chip -. before in
      if !clean_cost = 0.0 then clean_cost := cost;
      Printf.printf "  %18d %11.2f us %15.1fx\n" used (cost *. 1e6) (cost /. !clean_cost))
    [ 0; 4; 8; 16 ];
  note "the paper accepts this read overhead because flash reads are ~2.5x";
  note "cheaper than writes and far cheaper than the avoided erases";
  note "the engine's DRAM log cache (off here) hides this cost by serving log sectors from memory"

let ablation_group_commit () =
  section "Ablation: group commit (batched durability, beyond the paper)";
  let run group =
    let config =
      {
        Config.default with
        Config.recovery_enabled = true;
        buffer_pages = 256;
        group_commit = group;
      }
    in
    let engine = (tpcc_run config).Driver.Engine_run.engine in
    eok (Engine.flush_commits engine);
    let s = Engine.stats engine in
    Printf.printf "  group=%-3d %6d log-sector writes, %5d merges, flash time %6.2fs\n" group
      s.Engine.storage.Store.log_sector_writes s.Engine.storage.Store.merges
      s.Engine.flash.FStats.elapsed
  in
  List.iter run [ 0; 10; 50 ];
  note "batching lets several transactions' records share flash log sectors"

let ablation_background_merge () =
  section "Ablation: background merging (compaction off the write path)";
  let run ~compact_every =
    let chip = Chip.create (FConfig.default ~num_blocks:128 ()) in
    let config = { Config.default with Config.buffer_pages = 8 } in
    let engine = Engine.create ~config chip in
    let pages = Array.init 8 (fun _ -> eok (Engine.allocate_page engine)) in
    Array.iter (fun page -> insert_exn engine page (Bytes.make 32 'x')) pages;
    eok (Engine.checkpoint engine);
    let worst = ref 0.0 and total0 = ref (Chip.elapsed chip) in
    let rng = Ipl_util.Rng.of_int 31 in
    for i = 1 to 10_000 do
      let page = pages.(Ipl_util.Rng.int rng 8) in
      let before = Chip.elapsed chip in
      update_exn engine ~tx:Engine.no_txn page i 32;
      worst := Float.max !worst (Chip.elapsed chip -. before);
      (* An idle moment every [compact_every] operations. *)
      if compact_every > 0 && i mod compact_every = 0 then
        ignore (eok (Engine.compact engine ~max_merges:2) : int)
    done;
    eok (Engine.checkpoint engine);
    let total = Chip.elapsed chip -. !total0 in
    (!worst, total, (Engine.stats engine).Engine.storage.Store.merges)
  in
  let w0, t0, m0 = run ~compact_every:0 in
  let w1, t1, m1 = run ~compact_every:100 in
  Printf.printf "  %-22s worst op %6.2f ms, total flash %6.2f s, merges %4d\n" "no compaction"
    (w0 *. 1e3) t0 m0;
  Printf.printf "  %-22s worst op %6.2f ms, total flash %6.2f s, merges %4d\n"
    "compact every 100 ops" (w1 *. 1e3) t1 m1;
  note "the ~20ms merges leave the update path entirely, at the price of more";
  note "total (background) work - eager compaction merges underfull log regions"

let ablation_selective_merge_threshold () =
  section "Ablation: selective-merge threshold tau under a long-running transaction";
  List.iter
    (fun tau ->
      let chip = Chip.create (FConfig.default ~num_blocks:96 ()) in
      let config =
        {
          Config.default with
          Config.recovery_enabled = true;
          selective_merge_threshold = tau;
          buffer_pages = 4;
        }
      in
      let engine = Engine.create ~config chip in
      let page = eok (Engine.allocate_page engine) in
      insert_exn engine page (Bytes.make 16 'v');
      eok (Engine.checkpoint engine);
      let tx = eok (Engine.begin_txn engine) in
      for i = 1 to 2_000 do
        update_exn engine ~tx page i 16
      done;
      eok (Engine.commit engine tx);
      let s = (Engine.stats engine).Engine.storage in
      Printf.printf
        "  tau %4.2f: %5d merges, %5d diversions to overflow, %6d records carried over\n" tau
        s.Store.merges s.Store.overflow_diversions s.Store.records_carried_over)
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ]
