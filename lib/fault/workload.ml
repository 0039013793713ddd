module Engine = Ipl_core.Ipl_engine
module Rng = Ipl_util.Rng
module Session = Ipl_txn.Session

type spec = {
  seed : int;
  transactions : int;
  pages : int;
  slots_per_page : int;
  payload : int;
  abort_fraction : float;
}

let default =
  { seed = 7; transactions = 60; pages = 6; slots_per_page = 8; payload = 48; abort_fraction = 0.15 }

(* Upper bound on the slot numbers a run can produce: every insert either
   reuses a freed slot or appends one. The oracle sweeps this range. *)
let max_slots spec = spec.slots_per_page + (spec.transactions * 4)

(* The crash campaigns drive the typed engine API; only
   [Flash_chip.Power_loss] is supposed to unwind through here, so any
   typed error outside the paths that expect one is a harness bug. *)
let ok ctx = function
  | Ok v -> v
  | Error e -> failwith ("Workload." ^ ctx ^ ": " ^ Engine.error_to_string e)

let setup engine oracle spec =
  let pages = Array.init spec.pages (fun _ -> ok "setup" (Engine.allocate_page engine)) in
  let rng = Rng.of_int (spec.seed lxor 0x5eed) in
  let tx = ok "setup" (Engine.begin_txn engine) in
  Array.iter
    (fun p ->
      for _ = 1 to spec.slots_per_page do
        let data = Bytes.of_string (Rng.alpha_string rng ~min:spec.payload ~max:spec.payload) in
        let slot = ok "setup" (Engine.insert engine ~tx ~page:p data) in
        Oracle.seed oracle ~page:p ~slot data
      done)
    pages;
  ok "setup" (Engine.commit engine tx);
  ok "setup" (Engine.checkpoint engine);
  pages

(* Determinism matters: the golden run and every crash re-run draw the
   same plans, so operation index N is the same flash operation in
   each. *)
let plans spec ~pages =
  Session.draw_plans (Rng.of_int spec.seed) ~pages ~slots_per_page:spec.slots_per_page
    ~payload:spec.payload ~abort_fraction:spec.abort_fraction ~reads_per_txn:0
    spec.transactions

type resilient_outcome = {
  committed : int;
  aborted : int;
  degraded_at : int option;
  read_failures : int;
}

exception Tx_failed of Engine.error

(* The serial driver. A transaction that hits a device error
   ([Device_degraded], [Read_failed]) is aborted — its effects must
   vanish, and the oracle mirrors that — and a degraded device ends the
   run. Other refusals (page full, dead slot) are part of the mix. *)
let run engine oracle spec ~pages =
  let committed = ref 0 and aborted = ref 0 in
  let degraded_at = ref None and read_failures = ref 0 in
  let refused = function
    | (Engine.Device_degraded | Engine.Read_failed) as e -> raise (Tx_failed e)
    | _ -> ()
  in
  (try
     Array.iteri
       (fun txn { Session.ops; aborting; _ } ->
         let tx =
           match Engine.begin_txn engine with
           | Ok tx -> tx
           | Error Engine.Device_degraded ->
               degraded_at := Some (txn + 1);
               raise Exit
           | Error e -> failwith ("Workload.run: " ^ Engine.error_to_string e)
         in
         Oracle.begin_txn oracle ~txn;
         try
           List.iter
             (function
               | Session.Update { page; slot; data } -> (
                   match Engine.update engine ~tx ~page ~slot data with
                   | Ok () -> Oracle.note oracle ~txn ~page ~slot (Some data)
                   | Error e -> refused e)
               | Session.Insert { page; data } -> (
                   match Engine.insert engine ~tx ~page data with
                   | Ok slot -> Oracle.note oracle ~txn ~page ~slot (Some data)
                   | Error e -> refused e)
               | Session.Delete { page; slot } -> (
                   match Engine.delete engine ~tx ~page ~slot with
                   | Ok () -> Oracle.note oracle ~txn ~page ~slot None
                   | Error e -> refused e))
             ops;
           if aborting then begin
             (match Engine.abort engine tx with Ok () | Error _ -> ());
             Oracle.abort oracle ~txn;
             incr aborted
           end
           else begin
             Oracle.start_commit oracle ~txn;
             match Engine.commit engine tx with
             | Ok () ->
                 (* The serial engine forces the log at commit: every
                    commit is its own barrier. *)
                 Oracle.end_commit oracle ~txn;
                 incr committed;
                 Oracle.durable oracle !committed
             | Error e -> raise (Tx_failed e)
           end
         with Tx_failed e -> (
           (* The abort itself may trip over the same dying device; its
              record-level effect (dropping the transaction) is what the
              oracle models either way. *)
           (match Engine.abort engine tx with Ok () | Error _ -> ());
           Oracle.abort oracle ~txn;
           incr aborted;
           match e with
           | Engine.Device_degraded ->
               degraded_at := Some (txn + 1);
               raise Exit
           | _ -> incr read_failures))
       (plans spec ~pages)
   with Exit -> ());
  {
    committed = !committed;
    aborted = !aborted;
    degraded_at = !degraded_at;
    read_failures = !read_failures;
  }

let run_sessions engine oracle spec ~sessions ~pages =
  let observe = function
    | Session.Begin txn -> Oracle.begin_txn oracle ~txn
    | Session.Write { txn; page; slot; value } -> Oracle.note oracle ~txn ~page ~slot value
    | Session.Commit_start txn -> Oracle.start_commit oracle ~txn
    | Session.Commit_return txn -> Oracle.end_commit oracle ~txn
    | Session.Abort txn -> Oracle.abort oracle ~txn
    | Session.Durable n -> Oracle.durable oracle n
  in
  Session.run ~observe ~sessions ~plans:(plans spec ~pages) engine
