(* Tests for the B+-tree built on IPL-managed pages. *)

module Chip = Flash_sim.Flash_chip
module FConfig = Flash_sim.Flash_config
module Engine = Ipl_core.Ipl_engine
module Config = Ipl_core.Ipl_config
module B = Btree.Bptree

let mk ?(blocks = 256) ?(buffer_pages = 64) ?(page_size = Config.default.Config.page_size) () =
  let chip = Chip.create (FConfig.default ~num_blocks:blocks ()) in
  let config = { Config.default with Config.buffer_pages; page_size } in
  let e = Engine.create ~config chip in
  (chip, config, e, B.create e)

let ok = function Ok () -> () | Error e -> Alcotest.failf "unexpected error: %s" e

let test_empty () =
  let _, _, _, t = mk () in
  Alcotest.(check (option int)) "find" None (B.find t 42);
  Alcotest.(check int) "cardinal" 0 (B.cardinal t);
  Alcotest.(check int) "height" 1 (B.height t);
  Alcotest.(check (option int)) "min" None (B.min_key t);
  Alcotest.(check (option int)) "max" None (B.max_key t);
  Alcotest.(check (result unit string)) "invariants" (Ok ()) (B.check_invariants t)

let test_insert_find () =
  let _, _, _, t = mk () in
  ok (B.insert t ~tx:Engine.no_txn ~key:5 ~value:50);
  ok (B.insert t ~tx:Engine.no_txn ~key:1 ~value:10);
  ok (B.insert t ~tx:Engine.no_txn ~key:9 ~value:90);
  Alcotest.(check (option int)) "find 5" (Some 50) (B.find t 5);
  Alcotest.(check (option int)) "find 1" (Some 10) (B.find t 1);
  Alcotest.(check (option int)) "find 9" (Some 90) (B.find t 9);
  Alcotest.(check (option int)) "absent" None (B.find t 7);
  Alcotest.(check bool) "mem" true (B.mem t 5);
  Alcotest.(check int) "cardinal" 3 (B.cardinal t)

let test_duplicate_and_set () =
  let _, _, _, t = mk () in
  ok (B.insert t ~tx:Engine.no_txn ~key:3 ~value:30);
  (match B.insert t ~tx:Engine.no_txn ~key:3 ~value:31 with
  | Error "duplicate key" -> ()
  | _ -> Alcotest.fail "expected duplicate error");
  ok (B.set t ~tx:Engine.no_txn ~key:3 ~value:33);
  Alcotest.(check (option int)) "overwritten" (Some 33) (B.find t 3);
  ok (B.set t ~tx:Engine.no_txn ~key:4 ~value:44);
  Alcotest.(check (option int)) "upserted" (Some 44) (B.find t 4)

let test_delete () =
  let _, _, _, t = mk () in
  for k = 1 to 20 do
    ok (B.insert t ~tx:Engine.no_txn ~key:k ~value:(k * 10))
  done;
  ok (B.delete t ~tx:Engine.no_txn ~key:10);
  Alcotest.(check (option int)) "deleted" None (B.find t 10);
  Alcotest.(check int) "cardinal" 19 (B.cardinal t);
  (match B.delete t ~tx:Engine.no_txn ~key:10 with
  | Error "not found" -> ()
  | _ -> Alcotest.fail "expected not found");
  Alcotest.(check (result unit string)) "invariants" (Ok ()) (B.check_invariants t)

let test_splits_and_growth () =
  let _, _, _, t = mk () in
  let n = 5_000 in
  for k = 1 to n do
    ok (B.insert t ~tx:Engine.no_txn ~key:k ~value:(k * 2))
  done;
  Alcotest.(check int) "cardinal" n (B.cardinal t);
  Alcotest.(check bool) "tree grew" true (B.height t >= 2);
  Alcotest.(check (result unit string)) "invariants" (Ok ()) (B.check_invariants t);
  for k = 1 to n do
    if B.find t k <> Some (k * 2) then Alcotest.failf "lost key %d" k
  done

let test_reverse_and_random_orders () =
  let _, _, _, t = mk () in
  let keys = Array.init 2000 (fun i -> i * 7) in
  Ipl_util.Rng.shuffle (Ipl_util.Rng.of_int 5) keys;
  Array.iter (fun k -> ok (B.insert t ~tx:Engine.no_txn ~key:k ~value:(k + 1))) keys;
  Alcotest.(check (result unit string)) "invariants" (Ok ()) (B.check_invariants t);
  Alcotest.(check (option int)) "min" (Some 0) (B.min_key t);
  Alcotest.(check (option int)) "max" (Some (1999 * 7)) (B.max_key t);
  Array.iter
    (fun k -> if B.find t k <> Some (k + 1) then Alcotest.failf "lost key %d" k)
    keys

let test_range () =
  let _, _, _, t = mk () in
  for k = 0 to 999 do
    ok (B.insert t ~tx:Engine.no_txn ~key:(k * 2) ~value:k)
  done;
  let r = B.range t ~lo:10 ~hi:20 in
  Alcotest.(check (list (pair int int))) "range" [ (10, 5); (12, 6); (14, 7); (16, 8); (18, 9); (20, 10) ] r;
  Alcotest.(check int) "full range" 1000 (List.length (B.range t ~lo:min_int ~hi:max_int));
  Alcotest.(check (list (pair int int))) "empty range" [] (B.range t ~lo:11 ~hi:11)

let test_iter_sorted () =
  let _, _, _, t = mk () in
  let keys = Array.init 3000 (fun i -> i) in
  Ipl_util.Rng.shuffle (Ipl_util.Rng.of_int 17) keys;
  Array.iter (fun k -> ok (B.insert t ~tx:Engine.no_txn ~key:k ~value:k)) keys;
  let prev = ref (-1) and count = ref 0 in
  B.iter t (fun ~key ~value ->
      Alcotest.(check int) "value" key value;
      if key <= !prev then Alcotest.failf "out of order at %d" key;
      prev := key;
      incr count);
  Alcotest.(check int) "count" 3000 !count

let test_negative_keys () =
  let _, _, _, t = mk () in
  List.iter (fun k -> ok (B.insert t ~tx:Engine.no_txn ~key:k ~value:(k * 3))) [ -5; -1; 0; 3; -100 ];
  Alcotest.(check (option int)) "find -5" (Some (-15)) (B.find t (-5));
  Alcotest.(check (option int)) "find -100" (Some (-300)) (B.find t (-100));
  Alcotest.(check (option int)) "min" (Some (-100)) (B.min_key t)

let test_survives_restart () =
  let chip = Chip.create (FConfig.default ~num_blocks:256 ()) in
  let config = { Config.default with Config.buffer_pages = 32 } in
  let e = Engine.create ~config chip in
  let t = B.create e in
  for k = 1 to 1500 do
    ok (B.insert t ~tx:Engine.no_txn ~key:k ~value:(k * 5))
  done;
  Engine.Unsafe.checkpoint e;
  let header = B.header_page t in
  let e', _ = Engine.restart ~config chip in
  let t' = B.attach e' ~header in
  Alcotest.(check (result unit string)) "invariants" (Ok ()) (B.check_invariants t');
  Alcotest.(check int) "cardinal" 1500 (B.cardinal t');
  for k = 1 to 1500 do
    if B.find t' k <> Some (k * 5) then Alcotest.failf "lost key %d after restart" k
  done

let test_transactional_abort_rolls_back_index () =
  let chip = Chip.create (FConfig.default ~num_blocks:256 ()) in
  let config = { Config.default with Config.recovery_enabled = true; buffer_pages = 32 } in
  let e = Engine.create ~config chip in
  let t = B.create e in
  for k = 1 to 100 do
    ok (B.insert t ~tx:Engine.no_txn ~key:k ~value:k)
  done;
  let txi = Engine.Unsafe.begin_txn e in
  let tx = Engine.Unsafe.txn txi in
  ok (B.insert t ~tx ~key:1000 ~value:1);
  ok (B.delete t ~tx ~key:50);
  Engine.Unsafe.abort e txi;
  Alcotest.(check (option int)) "insert rolled back" None (B.find t 1000);
  Alcotest.(check (option int)) "delete rolled back" (Some 50) (B.find t 50);
  Alcotest.(check (result unit string)) "invariants" (Ok ()) (B.check_invariants t)

(* An engine error other than a full page is returned as [Error], not
   taken for a full node: a split would need a fresh page, which a
   read-only device refuses. *)
let test_engine_error_is_not_a_split () =
  let spb = 256 (* 128 KB erase unit / 512 B sectors *) in
  let chip = Chip.create (FConfig.default ~num_blocks:32 ()) in
  let config =
    { Config.default with Config.recovery_enabled = true; buffer_pages = 4; spare_blocks = 1 }
  in
  let e = Engine.create ~config chip in
  let t = B.create e in
  for k = 1 to 10 do
    ok (B.insert t ~tx:Engine.no_txn ~key:k ~value:k)
  done;
  Engine.Unsafe.checkpoint e;
  (* Every data-area program fails from here: the next flush burns the
     only spare and leaves the device read-only. *)
  Chip.set_fault_hook chip
    (Some
       (fun _ -> function
         | Chip.Op_program { sector; _ } when sector >= 8 * spb -> Chip.Program_fail
         | _ -> Chip.Proceed));
  let txi = Engine.Unsafe.begin_txn e in
  ok (B.insert t ~tx:(Engine.Unsafe.txn txi) ~key:11 ~value:11);
  (match Engine.commit e (Engine.Unsafe.txn txi) with
  | Error Engine.Device_degraded -> ()
  | Ok () -> Alcotest.fail "commit succeeded on a dying device"
  | Error err -> Alcotest.fail (Engine.error_to_string err));
  Engine.Unsafe.abort e txi;
  Chip.set_fault_hook chip None;
  Alcotest.(check bool) "degraded" true (Engine.degraded e);
  let refused = Error (Engine.error_to_string Engine.Device_degraded) in
  Alcotest.(check (result unit string)) "insert refused" refused
    (B.insert t ~tx:Engine.no_txn ~key:12 ~value:12);
  Alcotest.(check (result unit string)) "set refused" refused
    (B.set t ~tx:Engine.no_txn ~key:5 ~value:0);
  Alcotest.(check (option int)) "committed entry readable" (Some 5) (B.find t 5);
  Alcotest.(check (option int)) "aborted entry gone" None (B.find t 11);
  Alcotest.(check (option int)) "refused entry absent" None (B.find t 12)

(* A lookup visits each node on its path once: the header page plus one
   page per level, all buffer-pool hits when the tree is resident. *)
let test_find_page_traffic () =
  let _, _, e, t = mk ~page_size:1024 ~buffer_pages:512 () in
  for k = 0 to 2999 do
    ok (B.insert t ~tx:Engine.no_txn ~key:(k * 3) ~value:k)
  done;
  let h = B.height t in
  Alcotest.(check bool) "several levels" true (h >= 3);
  let accesses (s : Engine.combined_stats) = s.pool.hits + s.pool.misses in
  List.iter
    (fun key ->
      let before = Engine.stats e in
      let found = B.find t key in
      let after = Engine.stats e in
      Alcotest.(check (option int)) "result" (if key >= 0 && key mod 3 = 0 then Some (key / 3) else None) found;
      Alcotest.(check int)
        (Printf.sprintf "pool accesses for find %d" key)
        (h + 1)
        (accesses after - accesses before);
      Alcotest.(check int) "no pool misses" before.pool.misses after.pool.misses;
      Alcotest.(check int) "no flash reads" before.flash.sectors_read after.flash.sectors_read)
    [ 0; 1; 4_500; 4_501; 8_997; 8_998; -3 ]

(* Property: tree matches a model map under random insert/set/delete. *)
let prop_tree_vs_model =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (5, map2 (fun k v -> `Insert (k, v)) (int_bound 500) (int_bound 10_000));
          (2, map2 (fun k v -> `Set (k, v)) (int_bound 500) (int_bound 10_000));
          (2, map (fun k -> `Delete k) (int_bound 500));
        ])
  in
  QCheck.Test.make ~name:"btree matches model map" ~count:30
    (QCheck.make QCheck.Gen.(list_size (int_range 0 300) gen_op))
    (fun ops ->
      let _, _, _, t = mk ~blocks:128 ~buffer_pages:32 () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun op ->
          match op with
          | `Insert (k, v) -> (
              match B.insert t ~tx:Engine.no_txn ~key:k ~value:v with
              | Ok () ->
                  assert (not (Hashtbl.mem model k));
                  Hashtbl.replace model k v
              | Error _ -> assert (Hashtbl.mem model k))
          | `Set (k, v) -> (
              match B.set t ~tx:Engine.no_txn ~key:k ~value:v with
              | Ok () -> Hashtbl.replace model k v
              | Error _ -> assert false)
          | `Delete k -> (
              match B.delete t ~tx:Engine.no_txn ~key:k with
              | Ok () ->
                  assert (Hashtbl.mem model k);
                  Hashtbl.remove model k
              | Error _ -> assert (not (Hashtbl.mem model k))))
        ops;
      B.check_invariants t = Ok ()
      && Hashtbl.fold (fun k v acc -> acc && B.find t k = Some v) model true
      && B.cardinal t = Hashtbl.length model)

module IM = Map.Make (Int)

(* Property on small pages (about 50 entries per node), so internal nodes
   split and the tree reaches height 3: after a random insert/set/delete
   sequence, point lookups of present and absent keys, [next_ge] and
   [range] probes all agree with a sorted model. *)
let prop_deep_tree_vs_model =
  let key_space = 8_000 in
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (6, map2 (fun k v -> `Insert (k, v)) (int_bound key_space) (int_bound 10_000));
          (2, map2 (fun k v -> `Set (k, v)) (int_bound key_space) (int_bound 10_000));
          (2, map (fun k -> `Delete k) (int_bound key_space));
        ])
  in
  let gen_probe = QCheck.Gen.int_range (-10) (key_space + 10) in
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 4_000 5_000) gen_op)
        (list_size (return 200) gen_probe)
        (list_size (return 20) (pair gen_probe (int_bound 300))))
  in
  QCheck.Test.make ~name:"deep btree matches sorted model" ~count:5
    (QCheck.make ~print:(fun (ops, _, _) -> Printf.sprintf "<%d ops>" (List.length ops)) gen)
    (fun (ops, probes, ranges) ->
      let _, _, _, t = mk ~page_size:1024 ~buffer_pages:256 () in
      let model =
        List.fold_left
          (fun model op ->
            match op with
            | `Insert (k, v) -> (
                match B.insert t ~tx:Engine.no_txn ~key:k ~value:v with
                | Ok () ->
                    assert (not (IM.mem k model));
                    IM.add k v model
                | Error _ ->
                    assert (IM.mem k model);
                    model)
            | `Set (k, v) ->
                ok (B.set t ~tx:Engine.no_txn ~key:k ~value:v);
                IM.add k v model
            | `Delete k -> (
                match B.delete t ~tx:Engine.no_txn ~key:k with
                | Ok () ->
                    assert (IM.mem k model);
                    IM.remove k model
                | Error _ ->
                    assert (not (IM.mem k model));
                    model))
          IM.empty ops
      in
      let model_range lo hi =
        IM.to_seq_from lo model |> Seq.take_while (fun (k, _) -> k <= hi) |> List.of_seq
      in
      B.height t >= 3
      && B.check_invariants t = Ok ()
      && B.cardinal t = IM.cardinal model
      && IM.for_all (fun k v -> B.find t k = Some v && B.mem t k) model
      && List.for_all
           (fun p ->
             B.find t p = IM.find_opt p model
             && B.mem t p = IM.mem p model
             && B.next_ge t p = IM.find_first_opt (fun k -> k >= p) model)
           probes
      && List.for_all (fun (lo, w) -> B.range t ~lo ~hi:(lo + w) = model_range lo (lo + w)) ranges
      && B.min_key t = Option.map fst (IM.min_binding_opt model)
      && B.max_key t = Option.map fst (IM.max_binding_opt model))

let () =
  Alcotest.run "btree"
    [
      ( "bptree",
        [
          Alcotest.test_case "empty tree" `Quick test_empty;
          Alcotest.test_case "insert & find" `Quick test_insert_find;
          Alcotest.test_case "duplicates & set" `Quick test_duplicate_and_set;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "splits & growth" `Slow test_splits_and_growth;
          Alcotest.test_case "random insert order" `Quick test_reverse_and_random_orders;
          Alcotest.test_case "range scan" `Quick test_range;
          Alcotest.test_case "iter sorted" `Quick test_iter_sorted;
          Alcotest.test_case "negative keys" `Quick test_negative_keys;
          Alcotest.test_case "survives restart" `Slow test_survives_restart;
          Alcotest.test_case "abort rolls back" `Quick test_transactional_abort_rolls_back_index;
          Alcotest.test_case "engine error is not a split" `Quick test_engine_error_is_not_a_split;
          Alcotest.test_case "find page traffic" `Quick test_find_page_traffic;
          QCheck_alcotest.to_alcotest prop_tree_vs_model;
          QCheck_alcotest.to_alcotest prop_deep_tree_vs_model;
        ] );
    ]
