(* Benchmark entry point.

     main.exe --workload tpcc|oltp-large|sessions-64 --seed N --seconds S --trace 0|1

   --trace 0 runs the workload once, untraced, and reports the
   end-to-end metrics. --trace 1 runs it untraced and then traced, and
   reports the per-layer metrics, the simulated-time ledger and the
   tracing overhead; on oltp-large the untraced pass restarts eagerly,
   which makes it the eager twin of the traced pass's lazy restart.
   Spans of the traced pass go to perfbench/out/. The last line of
   standard output is the result object; the line before it holds the
   provenance. *)

open Harness

(* Transactions per second of [--seconds], measured on a 2-core x86-64
   host: the work is a fixed, seeded number of transactions, so every
   simulated-clock figure repeats exactly for a seed, and a run lasts
   about [--seconds] on that host. *)
let nominal_rate = function
  | "tpcc" -> 240
  | "oltp-large" -> 2000
  | "sessions-64" -> 12000
  | w -> invalid_arg ("unknown workload " ^ w)

let workloads = [ "tpcc"; "oltp-large"; "sessions-64" ]

let txns_for workload ~seconds =
  let n = max 1 seconds * nominal_rate workload in
  if workload = "sessions-64" then max 1 (n / Sessions_64.sessions) * Sessions_64.sessions
  else n

let run_pass workload ~seed ~txns ~traced ~eager_twin =
  match workload with
  | "tpcc" -> Tpcc_wl.run ~seed ~txns ~traced
  | "oltp-large" -> Oltp_large.run ~seed ~txns ~traced ~restart_lazy:(not eager_twin)
  | "sessions-64" -> Sessions_64.run ~seed ~txns ~traced
  | w -> invalid_arg ("unknown workload " ^ w)

let check_notes (o : Workload.outcome) =
  let c = o.Workload.check in
  (if c.mismatches > 0 then [ Printf.sprintf "%d of %d items mismatched" c.mismatches c.items ]
   else [])
  @ (if c.control_mismatches = 0 then [ "negative control: corrupted expectation not detected" ]
     else [])
  @ c.notes

let metrics_json ms =
  Json.Obj
    (List.map
       (fun (x : Report.metric) ->
         ( x.Report.name,
           Json.Obj [ ("value", Json.Float x.Report.value); ("unit", Json.String x.Report.unit_) ] ))
       ms)

let write_spans ~workload ~seed (o : Workload.outcome) header =
  let dir = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d.spans.jsonl" workload seed) in
  let spans = o.Workload.spans in
  let header =
    match header with
    | Json.Obj fields ->
        Json.Obj
          (fields
          @ [
              ("spans_recorded", Json.Int (Span.recorded spans));
              ("spans_written", Json.Int (min (Span.recorded spans) Span.keep));
            ])
    | other -> other
  in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Span.write oc spans ~header);
  path

let main ~workload ~seed ~seconds ~trace =
  let txns = txns_for workload ~seconds in
  let pass ~traced ~eager_twin = run_pass workload ~seed ~txns ~traced ~eager_twin in
  let first = pass ~traced:false ~eager_twin:trace in
  let notes = ref (check_notes first) in
  let result, outcomes =
    if not trace then
      ( Report.end_to_end first.Workload.loop first.Workload.recovery first.Workload.extras,
        [ first ] )
    else begin
      let second = pass ~traced:true ~eager_twin:false in
      notes := List.sort_uniq compare (!notes @ check_notes second);
      let rate (o : Workload.outcome) = txn_rate o.Workload.loop in
      let eager =
        if workload = "oltp-large" then begin
          if first.Workload.digest <> second.Workload.digest then
            notes := !notes @ [ "eager and lazy restart recovered different contents" ];
          Some (first.Workload.recovery.ttft_sim_s, first.Workload.recovery.restart_log_reads)
        end
        else None
      in
      let metrics, ledger =
        Report.per_layer second.Workload.loop second.Workload.recovery
          { second.Workload.extras with Report.eager }
          second.Workload.spans ~dev:second.Workload.dev
          ~overhead_ratio:(ratio (rate second) (rate first))
      in
      if not ledger.Report.adds_up then
        notes :=
          !notes
          @ [
              Printf.sprintf "ledger: device %.9f s, top-level spans %.9f s, buckets %.9f s"
                ledger.Report.device_s ledger.Report.top_s
                (sum (List.map snd ledger.Report.bucket_s));
            ];
      (metrics, [ first; second ])
    end
  in
  let last = List.nth outcomes (List.length outcomes - 1) in
  let provenance =
    Json.Obj
      ([
         ("workload", Json.String workload);
         ("seed", Json.Int seed);
         ("seconds", Json.Int seconds);
         ("trace", Json.Bool trace);
         ("transactions", Json.Int txns);
         ("rejected_page_full", Json.Int last.Workload.rejected);
         ("notes", Json.List (List.map (fun s -> Json.String s) !notes));
       ]
      @ last.Workload.provenance)
  in
  if trace then begin
    let path = write_spans ~workload ~seed last provenance in
    prerr_endline ("spans written to " ^ path)
  end;
  let total f = List.fold_left (fun a (o : Workload.outcome) -> a + f o) 0 outcomes in
  let attempted = total (fun o -> o.Workload.attempted) in
  let failed = total (fun o -> o.Workload.failed) in
  print_endline (Json.to_string (Json.Obj [ ("provenance", provenance) ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (!notes = []));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", metrics_json result);
          ]))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " run length on the reference host");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: traced run, per-layer metrics");
    ]
  in
  Arg.parse (Arg.align spec)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [options]";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("--workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace must be 0 or 1";
    exit 2
  end;
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
