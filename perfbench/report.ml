(* The metrics one run reports. End-to-end metrics come from the
   untraced run: host and simulated timings the harness takes around
   each transaction, plus counters read at the loop's edges. Per-layer
   metrics come from the traced run's spans and the layers' own stats.
   Every "per txn" figure divides by committed transactions. *)

open Harness

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* What a workload hands over besides the loop and the recovery. *)
type extras = {
  setup_s : float;
  engine_calls_failed : int;
  session_run_host_s : float;
  barriers : int;
  batched_commits : int;
  conflict_aborts : int;
  eager : (float * int) option;  (** eager twin: ttft seconds, restart log reads *)
}

let no_extras =
  {
    setup_s = 0.0;
    engine_calls_failed = 0;
    session_run_host_s = 0.0;
    barriers = 0;
    batched_commits = 0;
    conflict_aborts = 0;
    eager = None;
  }

let end_to_end (l : loop) (r : recovery) (x : extras) =
  let c = l.committed in
  [
    m "txn_per_s" "1/s" (txn_rate l);
    m "txn_p50_us" "us" (quantile l.host_lat 0.50 *. 1e6);
    m "txn_p99_us" "us" (quantile l.host_lat 0.99 *. 1e6);
    m "sim_txn_per_s" "1/s" (ratio (float_of_int c) l.sim_s);
    (* The mean, not the median: simulated latencies are sums of a few
       fixed flash timings, so the median sits on a plateau that reads
       the same for every seed. *)
    m "sim_commit_mean_ms" "ms"
      (ratio
         (Array.fold_left ( +. ) 0.0 l.sim_commit_lat)
         (float_of_int (Array.length l.sim_commit_lat))
      *. 1e3);
    m "sim_commit_p99_ms" "ms" (quantile l.sim_commit_lat 0.99 *. 1e3);
    m "erases_per_ktxn" "1/ktxn" (1000.0 *. per_txn l.flash.FStats.block_erases c);
    m "flash_write_kb_per_txn" "KiB/txn"
      (per_txn l.flash.FStats.sectors_written c *. 512.0 /. 1024.0);
    m "alloc_words_per_txn" "words/txn"
      (ratio (l.gc.minor +. l.gc.major -. l.gc.promoted) (float_of_int c));
    m "heap_peak_mb" "MiB" l.heap_peak_mb;
    m "restart_ttft_ms" "ms" (r.ttft_sim_s *. 1e3);
    m "setup_s" "s" x.setup_s;
  ]

(* ------------------------------------------------------------------ *)
(* Span classes                                                        *)

(* The calls a workload makes into the engine, directly or through the
   TPC-C store, grouped by what they do. *)
let read_spans =
  [ "engine.read"; "store.lookup"; "store.next_key_ge"; "store.customer_by_last_name" ]

let write_spans =
  [ "engine.insert"; "engine.update"; "engine.delete"; "store.insert"; "store.update"; "store.delete" ]

let commit_spans = [ "engine.commit"; "store.commit" ]
let txn_control_spans = [ "engine.begin"; "engine.abort"; "store.begin"; "store.abort" ]
let tpcc_types = [ "new_order"; "payment"; "order_status"; "delivery"; "stock_level" ]

(* Ledger buckets: every leaf span falls in exactly one. *)
let buckets =
  [
    ("read", read_spans);
    ("write", write_spans);
    ("commit", commit_spans @ txn_control_spans);
    ("compact", [ "engine.compact" ]);
    ("restart", [ "engine.restart" ]);
    ("drain", [ "engine.drain" ]);
    ("session_run", [ "txn.session_run" ]);
  ]

(* The simulated-time ledger: the top-level spans, and separately the
   leaf spans grouped into buckets, must each add up to the device time
   of the timed phases (the loop plus crash-to-drained). The harness only
   touches the device inside spans during those phases, so anything left
   over is time the trace failed to attribute. *)
type ledger = { device_s : float; top_s : float; bucket_s : (string * float) list; adds_up : bool }

let ledger spans ~device_s =
  let top_s = Span.top_sim spans in
  let bucket_s = List.map (fun (b, names) -> (b, Span.leaf_sim spans names)) buckets in
  let close x = Float.abs (x -. device_s) <= 1e-9 *. Float.max 1.0 device_s in
  { device_s; top_s; bucket_s; adds_up = close top_s && close (sum (List.map snd bucket_s)) }

let per_layer (l : loop) (r : recovery) (x : extras) spans ~dev ~overhead_ratio =
  let c = l.committed in
  let st = l.stats.Engine.storage and pool = l.stats.Engine.pool in
  let sim_ms_per_txn names = ratio (Span.sim_total spans names) (float_of_int c) *. 1e3 in
  let p names q = quantile (Span.host_samples spans names) q *. 1e6 in
  let chans = l.chans in
  let nchan = float_of_int (List.length chans) in
  let class_p99 cls = Obs.Metrics.Latency.percentile (Dev.class_latency dev cls) 0.99 *. 1e3 in
  let device_s = l.sim_s +. (float_of_int r.crashes *. (r.ttft_sim_s +. r.drain_sim_s)) in
  let lg = ledger spans ~device_s in
  let pool_hits = float_of_int pool.Bufmgr.Buffer_pool.hits in
  let pool_misses = float_of_int pool.Bufmgr.Buffer_pool.misses in
  let cache_hits = float_of_int st.Storage_stats.log_cache_hits in
  let cache_misses = float_of_int st.Storage_stats.log_cache_misses in
  let eager_ttft, eager_reads =
    match x.eager with
    | Some (s, n) -> (s, n)
    | None -> (r.ttft_sim_s, r.restart_log_reads)
  in
  let metrics =
    [
      m "engine.read.host_p50_us" "us" (p read_spans 0.50);
      m "engine.read.host_p99_us" "us" (p read_spans 0.99);
      m "engine.read.sim_ms_per_txn" "ms/txn" (sim_ms_per_txn read_spans);
      m "engine.write.host_p50_us" "us" (p write_spans 0.50);
      m "engine.write.sim_ms_per_txn" "ms/txn" (sim_ms_per_txn write_spans);
      m "engine.commit.host_p50_us" "us" (p commit_spans 0.50);
      m "engine.commit.host_p99_us" "us" (p commit_spans 0.99);
      m "engine.commit.sim_ms_per_txn" "ms/txn" (sim_ms_per_txn commit_spans);
      m "engine.compact.host_s" "s" (Span.host_total spans [ "engine.compact" ]);
      m "engine.compact.sim_s" "s" (Span.sim_total spans [ "engine.compact" ]);
      m "engine.calls_failed" "count" (float_of_int x.engine_calls_failed);
      m "storage.merges_per_ktxn" "1/ktxn" (1000.0 *. per_txn st.Storage_stats.merges c);
      m "storage.overflow_diversions" "count" (float_of_int st.Storage_stats.overflow_diversions);
      m "storage.records_carried_over" "count" (float_of_int st.Storage_stats.records_carried_over);
      m "storage.log_sector_reads_per_txn" "1/txn" (per_txn st.Storage_stats.log_sector_reads c);
      m "storage.page_reads_per_txn" "1/txn" (per_txn st.Storage_stats.page_reads c);
      m "storage.log_sector_writes_per_txn" "1/txn" (per_txn st.Storage_stats.log_sector_writes c);
      m "buffer.hit_ratio" "ratio" (ratio pool_hits (pool_hits +. pool_misses));
      m "buffer.evictions_per_txn" "1/txn" (per_txn pool.Bufmgr.Buffer_pool.evictions c);
      m "cache.hit_ratio" "ratio" (ratio cache_hits (cache_hits +. cache_misses));
      m "cache.evictions_per_txn" "1/txn" (per_txn st.Storage_stats.log_cache_evictions c);
      m "device.utilization_mean" "ratio"
        (ratio (sum (List.map (fun ch -> ratio ch.busy l.sim_s) chans)) nchan);
      m "device.queue_depth_mean" "ops"
        (ratio (sum (List.map (fun ch -> ch.qsum) chans))
           (float_of_int (List.fold_left (fun a ch -> a + ch.subs) 0 chans)));
      m "device.busy_s" "s" (sum (List.map (fun ch -> ch.busy) chans));
      m "device.foreground.p99_ms" "ms" (class_p99 Dev.Foreground);
      m "device.log_flush.p99_ms" "ms" (class_p99 Dev.Log_flush);
      m "device.merge_io.p99_ms" "ms" (class_p99 Dev.Merge_io);
      m "flash.sectors_read_per_txn" "1/txn" (per_txn l.flash.FStats.sectors_read c);
      m "flash.sectors_written_per_txn" "1/txn" (per_txn l.flash.FStats.sectors_written c);
      m "flash.max_wear" "erases" (float_of_int (Dev.stats dev).FStats.max_wear);
      m "txn.session_run.host_s" "s" x.session_run_host_s;
      m "txn.mean_commit_batch" "txn" (per_txn x.batched_commits x.barriers);
      m "txn.barriers" "count" (float_of_int x.barriers);
      m "txn.conflict_aborts" "count" (float_of_int x.conflict_aborts);
      m "recovery.restart.host_ms" "ms" (r.restart_host_s *. 1e3);
      m "recovery.restart_log_reads" "count" (float_of_int r.restart_log_reads);
      m "recovery.repair_pending" "count" (float_of_int r.repair_pending);
      m "recovery.drain.host_ms" "ms" (r.drain_host_s *. 1e3);
      m "recovery.drain.sim_ms" "ms" (r.drain_sim_s *. 1e3);
      m "recovery.eager_ttft_ms" "ms" (eager_ttft *. 1e3);
      m "recovery.eager_restart_log_reads" "count" (float_of_int eager_reads);
    ]
    @ List.map
        (fun ty -> m ("tpcc." ^ ty ^ ".host_p50_us") "us" (p [ "tpcc." ^ ty ] 0.50))
        tpcc_types
    @ [
        m "gc.minor_words_per_txn" "words/txn" (ratio l.gc.minor (float_of_int c));
        m "gc.major_words_per_txn" "words/txn" (ratio l.gc.major (float_of_int c));
        m "gc.major_collections" "count" (float_of_int l.gc.collections);
        m "trace.overhead_ratio" "ratio" overhead_ratio;
        m "host.slowdown" "ratio" l.slowdown;
        m "ledger.device_s" "s" lg.device_s;
      ]
    @ List.map (fun (b, s) -> m ("ledger." ^ b ^ "_s") "s" s) lg.bucket_s
    @ List.map
        (fun ty -> m ("ledger.tpcc." ^ ty ^ "_s") "s" (Span.sim_total spans [ "tpcc." ^ ty ]))
        tpcc_types
  in
  (metrics, lg)
