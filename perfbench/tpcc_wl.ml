(* tpcc: the paper's own workload. The TPC-C mix (45/43/4/4/4, 1 % of
   New-Orders roll back) at mini sizing on the IPL engine store, with
   recovery on, on the paper's single chip, one client in a closed loop.
   Each transaction is timed around its Tpcc_txn call; the harness draws
   the transaction type itself so it knows what it timed.

   Check: the same seed, sizing and type sequence replayed on the logical
   layout store, whose warehouse, district, customer, stock, orders and
   new_order rows must equal the engine's byte for byte. *)

open Harness
module Store = Tpcc.Tpcc_engine_store
module Layout = Tpcc.Tpcc_layout_store
module Txn = Tpcc.Tpcc_txn
module Schema = Tpcc.Tpcc_schema
module Record = Storage.Record

let num_blocks = 1024
let compact_every = 50
let sizing = Txn.mini_sizing
let config = { Config.default with Config.recovery_enabled = true }

type kind = New_order | Payment | Order_status | Delivery | Stock_level

let span_name = function
  | New_order -> "tpcc.new_order"
  | Payment -> "tpcc.payment"
  | Order_status -> "tpcc.order_status"
  | Delivery -> "tpcc.delivery"
  | Stock_level -> "tpcc.stock_level"

(* The mix is dealt from a shuffled deck of 100 cards (45/43/4/4/4), the
   selection method TPC-C clause 5.2.4.2 allows: every block of 100
   transactions has the exact mix, so run-to-run differences come from
   the system, not from the draw. *)
let deck =
  Array.concat
    [
      Array.make 45 New_order;
      Array.make 43 Payment;
      Array.make 4 Order_status;
      Array.make 4 Delivery;
      Array.make 4 Stock_level;
    ]

let deal rng n =
  let cards = ref [||] in
  Array.init n (fun i ->
      if i mod Array.length deck = 0 then begin
        cards := Array.copy deck;
        Rng.shuffle rng !cards
      end;
      !cards.(i mod Array.length deck))

(* The store seen through spans: every call Tpcc_txn makes into the
   relation, B+-tree and engine layers becomes a child of the
   transaction's span. *)
let recorder = ref (Span.create ~traced:false ~sim:(fun () -> 0.0))

module Traced_store = struct
  type t = Store.t
  type tx = Store.tx

  let w name f = Span.with_span !recorder name f
  let no_txn = Store.no_txn
  let begin_txn t = w "store.begin" (fun () -> Store.begin_txn t)
  let commit t tx = w "store.commit" (fun () -> Store.commit t tx)
  let abort t tx = w "store.abort" (fun () -> Store.abort t tx)
  let insert t ~tx tbl ~key row = w "store.insert" (fun () -> Store.insert t ~tx tbl ~key row)
  let lookup t tbl ~key = w "store.lookup" (fun () -> Store.lookup t tbl ~key)
  let update t ~tx tbl ~key f = w "store.update" (fun () -> Store.update t ~tx tbl ~key f)
  let delete t ~tx tbl ~key = w "store.delete" (fun () -> Store.delete t ~tx tbl ~key)
  let next_key_ge t tbl ~key = w "store.next_key_ge" (fun () -> Store.next_key_ge t tbl ~key)

  let customer_by_last_name t ~w:wh ~d ~last =
    w "store.customer_by_last_name" (fun () -> Store.customer_by_last_name t ~w:wh ~d ~last)
end

module Plain = Txn.Make (Store)
module Traced = Txn.Make (Traced_store)
module Reference = Txn.Make (Layout)

(* One runner over whichever instantiation runs. *)
type runner = { call : kind -> unit; counts : unit -> Txn.counts }

let plain ctx =
  {
    call =
      (function
      | New_order -> Plain.new_order ctx
      | Payment -> Plain.payment ctx
      | Order_status -> Plain.order_status ctx
      | Delivery -> Plain.delivery ctx
      | Stock_level -> Plain.stock_level ctx);
    counts = (fun () -> Plain.counts ctx);
  }

let traced ctx =
  {
    call =
      (function
      | New_order -> Traced.new_order ctx
      | Payment -> Traced.payment ctx
      | Order_status -> Traced.order_status ctx
      | Delivery -> Traced.delivery ctx
      | Stock_level -> Traced.stock_level ctx);
    counts = (fun () -> Traced.counts ctx);
  }

let reference ctx = function
  | New_order -> Reference.new_order ctx
  | Payment -> Reference.payment ctx
  | Order_status -> Reference.order_status ctx
  | Delivery -> Reference.delivery ctx
  | Stock_level -> Reference.stock_level ctx

(* Both stores' rows of the compared tables, as (label, expected,
   actual) encodings. *)
let row_pairs ~(expect : Schema.table -> int -> Record.t option)
    ~(actual : Schema.table -> int -> Record.t option) ~next_o ~new_order_keys =
  let enc = Option.map (fun r -> Bytes.to_string (Record.encode r)) in
  let pairs = ref [] in
  let add tbl key =
    pairs := (Schema.table_name tbl, key, enc (expect tbl key), enc (actual tbl key)) :: !pairs
  in
  for w = 1 to sizing.Txn.warehouses do
    add Schema.Warehouse (Schema.warehouse_key ~w);
    for i = 1 to sizing.Txn.items do
      add Schema.Stock (Schema.stock_key ~w ~i)
    done;
    for d = 1 to sizing.Txn.districts do
      add Schema.District (Schema.district_key ~w ~d);
      for c = 1 to sizing.Txn.customers do
        add Schema.Customer (Schema.customer_key ~w ~d ~c)
      done;
      for o = 1 to next_o ~w ~d - 1 do
        add Schema.Orders (Schema.orders_key ~w ~d ~o)
      done;
      List.iter (add Schema.New_order) (new_order_keys ~w ~d)
    done
  done;
  List.rev !pairs

let count_mismatches pairs =
  List.fold_left (fun n (_, _, e, a) -> if e = a then n else n + 1) 0 pairs

let build ~seed ~traced:is_traced () =
  let chip = Chip.create (FConfig.default ~num_blocks ()) in
  let engine = Engine.create ~config chip in
  let store = Store.create engine in
  let runner =
    if is_traced then begin
      let ctx = Traced.make_ctx store ~seed sizing in
      Traced.load ctx;
      traced ctx
    end
    else begin
      let ctx = Plain.make_ctx store ~seed sizing in
      Plain.load ctx;
      plain ctx
    end
  in
  let probe = make_probe engine in
  ok "setup checkpoint" (Engine.checkpoint engine);
  (engine, store, runner, probe)

let kind_count (c : Txn.counts) = function
  | New_order -> c.Txn.new_order
  | Payment -> c.Txn.payment
  | Order_status -> c.Txn.order_status
  | Delivery -> c.Txn.delivery
  | Stock_level -> c.Txn.stock_level

let next_key_range next_key_ge ~w ~d =
  let lo = Schema.new_order_key ~w ~d ~o:0 in
  let hi = lo + 100_000_000 in
  let rec go k acc =
    match next_key_ge Schema.New_order k with
    | Some key when key < hi -> go (key + 1) (key :: acc)
    | _ -> List.rev acc
  in
  go lo []

let run ~seed ~txns ~traced:is_traced =
  let (engine, store, runner, probe), setup_s =
    Workload.timed_setups (build ~seed ~traced:is_traced)
  in
  let dev = Engine.device engine in
  let krng = Rng.of_int (seed + 1_000_003) in
  let kinds = deal krng txns in
  progress "setup done (median %.3f s)" setup_s;
  let spans = Span.create ~traced:is_traced ~sim:(fun () -> Dev.elapsed dev) in
  recorder := spans;
  let fs = failures () in
  let meter = start_loop dev engine ~records:txns ~max_commits:txns in
  let gen ~lo ~hi = Array.sub kinds lo (hi - lo) in
  chunked meter ~stop:(fun () -> fs.count > 0) ~n:txns ~gen ~step:(fun i kind ->
    let c = runner.counts () in
    let done0 = kind_count c kind and rollbacks0 = c.Txn.rollbacks in
    let started = now_ns () and sim0 = Dev.elapsed dev in
    (* The store raises on any engine error. *)
    let ran =
      guard fs (span_name kind) (fun () ->
          Span.with_span spans (span_name kind) (fun () ->
              Span.set_txn spans i;
              runner.call kind))
      = Some ()
    in
    let committed = ran && kind_count c kind = done0 + 1 && c.Txn.rollbacks = rollbacks0 in
    (* Latency is New-Order's, the transaction TPC-C's throughput
       counts: the mix's types differ by 10x in cost, and a percentile
       across them lands on the boundary between two populations. *)
    if committed && kind = New_order then sim_commit meter (Dev.elapsed dev -. sim0);
    record meter ~started ~txns:1 ~commits:(if committed then 1 else 0) ~sample:(kind = New_order);
    if (i + 1) mod compact_every = 0 then begin
      let started = now_ns () in
      ignore
        (expect_ok fs "engine.compact" (fun () ->
             Span.with_span spans "engine.compact" (fun () ->
                 Engine.compact engine ~max_merges:1)));
      background meter ~started
    end);
  let loop = finish_loop meter engine in
  progress "loop done: %d transactions, %d committed" loop.txns loop.committed;
  (* The reference run: same seed, sizing and type sequence on the
     logical layout store. *)
  let lstore = Layout.create ~buffer_bytes:(20 * 1024 * 1024) ~name:"reference" () in
  let rctx = Reference.make_ctx lstore ~seed sizing in
  Reference.load rctx;
  Array.iter (reference rctx) (Array.sub kinds 0 loop.txns);
  let next_o ~w ~d =
    let of_store lookup =
      match lookup Schema.District (Schema.district_key ~w ~d) with
      | Some row -> Record.get_int row Schema.F.d_next_o_id
      | None -> 1
    in
    max
      (of_store (fun tbl key -> Layout.lookup lstore tbl ~key))
      (of_store (fun tbl key -> Store.lookup store tbl ~key))
  in
  let new_order_keys ~w ~d =
    List.sort_uniq compare
      (next_key_range (fun tbl key -> Layout.next_key_ge lstore tbl ~key) ~w ~d
      @ next_key_range (fun tbl key -> Store.next_key_ge store tbl ~key) ~w ~d)
  in
  let pairs =
    row_pairs
      ~expect:(fun tbl key -> Layout.lookup lstore tbl ~key)
      ~actual:(fun tbl key -> Store.lookup store tbl ~key)
      ~next_o ~new_order_keys
  in
  let mismatches = count_mismatches pairs in
  (* Negative control: one expected row corrupted. *)
  let control =
    count_mismatches
      (List.mapi
         (fun j (t, k, e, a) ->
           if j = seed mod List.length pairs then (t, k, Some ("!" ^ Option.value ~default:"" e), a)
           else (t, k, e, a))
         pairs)
  in
  let recovery = crash_and_restart spans fs dev config ~probe ~txn:txns in
  {
    Workload.loop;
    recovery;
    extras = { Report.no_extras with Report.setup_s; engine_calls_failed = fs.count };
    check =
      {
        items = List.length pairs;
        mismatches;
        control_mismatches = control;
        notes = failure_notes fs;
      };
    attempted = loop.txns + 1 + List.length pairs;
    failed = fs.count + mismatches;
    rejected = 0;
    spans;
    dev;
    provenance =
      ("sizing", Json.String "mini") :: provenance ~db_pages:(Engine.page_count engine) ~engine;
    digest = 0;
  }
