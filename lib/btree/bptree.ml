module Engine = Ipl_core.Ipl_engine
module Page = Storage.Page

(* Node encoding, all within ordinary slotted pages:
     slot 0          : meta record [magic:u8 = 0xB7][is_leaf:u8][next_leaf:u32]
     slots 1..       : entry records [key:i64][value:i64]
   Internal-node entries are (separator, child-page) pairs; the leftmost
   separator is min_int so a child always exists for any key. The header
   page (the tree's identity) holds a single record with the root page id.

   Entries sit in slot order, not key order. A lookup searches a node where
   it lies on the pinned page, reading each live slot's key and value in
   place; only a split and the full scans decode a node into sorted
   entries. *)

type t = { engine : Engine.t; header : int }

let no_leaf = 0xFFFFFFFF
let meta_magic = 0xB7
let entry_size = 16

let encode_meta ~is_leaf ~next_leaf =
  let b = Bytes.create 6 in
  Bytes.set_uint8 b 0 meta_magic;
  Bytes.set_uint8 b 1 (if is_leaf then 1 else 0);
  Bytes.set_int32_le b 2 (Int32.of_int next_leaf);
  b

let encode_entry key value =
  let b = Bytes.create entry_size in
  Bytes.set_int64_le b 0 (Int64.of_int key);
  Bytes.set_int64_le b 8 (Int64.of_int value);
  b

(* In-place field access; [off] is a live slot's payload offset. *)
let key_at p off = Int64.to_int (Bytes.get_int64_le (Page.to_bytes p) off)
let value_at p off = Int64.to_int (Bytes.get_int64_le (Page.to_bytes p) (off + 8))

let meta_offset p =
  let m = Page.payload_offset p 0 in
  if m < 0 then failwith "Bptree: missing node meta";
  if Bytes.get_uint8 (Page.to_bytes p) m <> meta_magic then failwith "Bptree: bad node magic";
  m

let is_leaf p = Bytes.get_uint8 (Page.to_bytes p) (meta_offset p + 1) = 1

let next_leaf p =
  Int32.to_int (Bytes.get_int32_le (Page.to_bytes p) (meta_offset p + 2)) land 0xFFFFFFFF

(* Slot holding [key] in a node, or -1. *)
let slot_of p key =
  let n = Page.slot_count p in
  let rec go s =
    if s >= n then -1
    else
      let off = Page.payload_offset p s in
      if off >= 0 && key_at p off = key then s else go (s + 1)
  in
  go 1

(* Child of an internal node covering [key]: the greatest separator <= key,
   or the smallest one when none qualifies (only possible transiently; the
   leftmost separator is min_int). *)
let child_for p key =
  let best = ref (-1) and best_k = ref min_int and low = ref (-1) and low_k = ref max_int in
  for s = 1 to Page.slot_count p - 1 do
    let off = Page.payload_offset p s in
    if off >= 0 then begin
      let k = key_at p off in
      if k <= key && (!best < 0 || k > !best_k) then begin
        best := value_at p off;
        best_k := k
      end;
      if !low < 0 || k < !low_k then begin
        low := value_at p off;
        low_k := k
      end
    end
  done;
  if !best >= 0 then !best
  else if !low >= 0 then !low
  else failwith "Bptree: empty internal node"

(* Smallest [(key, value)] of a leaf with key >= [key]. *)
let least_ge p key =
  let best = ref (-1) and best_k = ref max_int in
  for s = 1 to Page.slot_count p - 1 do
    let off = Page.payload_offset p s in
    if off >= 0 then begin
      let k = key_at p off in
      if k >= key && (!best < 0 || k < !best_k) then begin
        best := off;
        best_k := k
      end
    end
  done;
  if !best < 0 then None else Some (!best_k, value_at p !best)

type node = {
  is_leaf : bool;
  next_leaf : int;  (* no_leaf if none *)
  entries : (int * int * int) array;  (* key, value, slot — sorted by key *)
}

let decode_node p =
  let is_leaf = is_leaf p and next_leaf = next_leaf p in
  let entries = Array.make (Page.live_records p - 1) (0, 0, 0) in
  let i = ref 0 in
  for s = 1 to Page.slot_count p - 1 do
    let off = Page.payload_offset p s in
    if off >= 0 then begin
      entries.(!i) <- (key_at p off, value_at p off, s);
      incr i
    end
  done;
  (* Keys are unique within a node. *)
  Array.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) entries;
  { is_leaf; next_leaf; entries }

let fail_on_error = function
  | Ok x -> x
  | Error e -> failwith ("Bptree: unexpected engine error: " ^ Engine.error_to_string e)

let visit t pid f = fail_on_error (Engine.with_page t.engine pid f)
let read_node t pid = visit t pid decode_node

let new_node t ~tx ~is_leaf ~next_leaf =
  let pid = fail_on_error (Engine.allocate_page t.engine) in
  (match Engine.insert t.engine ~tx ~page:pid (encode_meta ~is_leaf ~next_leaf) with
  | Ok 0 -> ()
  | Ok _ -> failwith "Bptree: meta not at slot 0"
  | Error e -> failwith ("Bptree: " ^ Engine.error_to_string e));
  pid

let set_next_leaf t ~tx pid next =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int next);
  fail_on_error (Engine.update_range t.engine ~tx ~page:pid ~slot:0 ~offset:2 b)

let root t =
  visit t t.header (fun p ->
      match Page.read p 0 with
      | Some b -> Int64.to_int (Bytes.get_int64_le b 0)
      | None -> failwith "Bptree: missing header record")

let set_root t ~tx pid =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int pid);
  fail_on_error (Engine.update t.engine ~tx ~page:t.header ~slot:0 b)

let create engine =
  let header = fail_on_error (Engine.allocate_page engine) in
  let t = { engine; header } in
  let root = new_node t ~tx:Engine.no_txn ~is_leaf:true ~next_leaf:no_leaf in
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int root);
  (match Engine.insert engine ~tx:Engine.no_txn ~page:header b with
  | Ok 0 -> ()
  | _ -> failwith "Bptree: header init failed");
  t

let attach engine ~header = { engine; header }
let header_page t = t.header

type 'a step = Leaf of 'a | Child of int

(* Walk from the root to the leaf covering [key], one page visit per level,
   and apply [at_leaf] to the leaf inside its visit. Returns the leaf, the
   internal nodes above it (nearest parent first) and [at_leaf]'s result. *)
let descend t key ~at_leaf =
  let rec go pid path =
    match visit t pid (fun p -> if is_leaf p then Leaf (at_leaf p) else Child (child_for p key)) with
    | Leaf r -> (pid, path, r)
    | Child c -> go c (pid :: path)
  in
  go (root t) []

let find t key =
  let _, _, v =
    descend t key ~at_leaf:(fun p ->
        let s = slot_of p key in
        if s < 0 then None else Some (value_at p (Page.payload_offset p s)))
  in
  v

let mem t key = find t key <> None

let next_ge t key =
  let scan p = (least_ge p key, next_leaf p) in
  let rec follow = function
    | (Some _ as hit), _ -> hit
    | None, next -> if next = no_leaf then None else follow (visit t next scan)
  in
  let _, _, first = descend t key ~at_leaf:scan in
  follow first

(* Move the upper half of a node's entries into a fresh sibling and return
   (separator, new page id). *)
let split t ~tx pid node =
  let n = Array.length node.entries in
  assert (n >= 2);
  let mid = n / 2 in
  let sep, _, _ = node.entries.(mid) in
  if node.is_leaf then begin
    let right = new_node t ~tx ~is_leaf:true ~next_leaf:node.next_leaf in
    for i = mid to n - 1 do
      let k, v, slot = node.entries.(i) in
      fail_on_error (Result.map (fun (_ : int) -> ()) (Engine.insert t.engine ~tx ~page:right (encode_entry k v)));
      fail_on_error (Engine.delete t.engine ~tx ~page:pid ~slot)
    done;
    set_next_leaf t ~tx pid right;
    (sep, right)
  end
  else begin
    (* The separator moves up: the right node's leftmost child keeps the
       min_int sentinel key. *)
    let right = new_node t ~tx ~is_leaf:false ~next_leaf:no_leaf in
    let _, child_mid, slot_mid = node.entries.(mid) in
    fail_on_error
      (Result.map (fun (_ : int) -> ())
         (Engine.insert t.engine ~tx ~page:right (encode_entry min_int child_mid)));
    fail_on_error (Engine.delete t.engine ~tx ~page:pid ~slot:slot_mid);
    for i = mid + 1 to n - 1 do
      let k, v, slot = node.entries.(i) in
      fail_on_error
        (Result.map (fun (_ : int) -> ()) (Engine.insert t.engine ~tx ~page:right (encode_entry k v)));
      fail_on_error (Engine.delete t.engine ~tx ~page:pid ~slot)
    done;
    (sep, right)
  end

let ( let* ) = Result.bind

(* Insert a separator entry into the ancestors after a split of [child_pid]
   (whose path to the root is [path], nearest parent first). *)
let rec insert_sep t ~tx ~path ~child_pid sep new_pid =
  match path with
  | [] ->
      (* child_pid was the root: grow the tree. *)
      let new_root = new_node t ~tx ~is_leaf:false ~next_leaf:no_leaf in
      fail_on_error
        (Result.map (fun (_ : int) -> ())
           (Engine.insert t.engine ~tx ~page:new_root (encode_entry min_int child_pid)));
      fail_on_error
        (Result.map (fun (_ : int) -> ())
           (Engine.insert t.engine ~tx ~page:new_root (encode_entry sep new_pid)));
      set_root t ~tx new_root;
      Ok ()
  | parent :: rest -> (
      match Engine.insert t.engine ~tx ~page:parent (encode_entry sep new_pid) with
      | Ok _ -> Ok ()
      | Error Engine.Page_full ->
          (* Parent full: split it, then retry into the correct half. *)
          let psep, pnew = split t ~tx parent (read_node t parent) in
          let* () = insert_sep t ~tx ~path:rest ~child_pid:parent psep pnew in
          let target = if sep >= psep then pnew else parent in
          Engine.insert t.engine ~tx ~page:target (encode_entry sep new_pid)
          |> Result.map (fun (_ : int) -> ())
          |> Result.map_error Engine.error_to_string
      | Error e -> Error (Engine.error_to_string e))

let rec insert_leafward t ~tx key value ~overwrite =
  let pid, path, (slot, full) =
    descend t key ~at_leaf:(fun p ->
        let slot = slot_of p key in
        (* A leaf that may refuse the new entry is decoded in this same
           visit, ready for the split. [free_space] counts a new slot
           entry, so it is below [entry_size] whenever the insert fails. *)
        (slot, if slot < 0 && Page.free_space p < entry_size then Some (decode_node p) else None))
  in
  if slot >= 0 then
    if overwrite then
      Result.map_error Engine.error_to_string
        (Engine.update t.engine ~tx ~page:pid ~slot (encode_entry key value))
    else Error "duplicate key"
  else
    match Engine.insert t.engine ~tx ~page:pid (encode_entry key value) with
    | Ok _ -> Ok ()
    | Error Engine.Page_full ->
        (* Leaf full: split and retry from the top (ancestor set may have
           changed shape). *)
        let node = match full with Some node -> node | None -> read_node t pid in
        let sep, new_pid = split t ~tx pid node in
        let* () = insert_sep t ~tx ~path ~child_pid:pid sep new_pid in
        insert_leafward t ~tx key value ~overwrite
    | Error e -> Error (Engine.error_to_string e)

let insert t ~tx ~key ~value = insert_leafward t ~tx key value ~overwrite:false
let set t ~tx ~key ~value = insert_leafward t ~tx key value ~overwrite:true

let delete t ~tx ~key =
  let pid, _, slot = descend t key ~at_leaf:(fun p -> slot_of p key) in
  if slot < 0 then Error "not found"
  else Result.map_error Engine.error_to_string (Engine.delete t.engine ~tx ~page:pid ~slot)

let iter t f =
  let rec walk pid =
    let node = read_node t pid in
    Array.iter (fun (k, v, _) -> f ~key:k ~value:v) node.entries;
    if node.next_leaf <> no_leaf then walk node.next_leaf
  in
  let leftmost, _, () = descend t min_int ~at_leaf:ignore in
  walk leftmost

let range t ~lo ~hi =
  (* One leaf's matching pairs onto [acc], and the leaf to visit next. *)
  let scan acc p =
    let acc = ref acc and past_hi = ref false in
    for s = 1 to Page.slot_count p - 1 do
      let off = Page.payload_offset p s in
      if off >= 0 then begin
        let k = key_at p off in
        if k > hi then past_hi := true else if k >= lo then acc := (k, value_at p off) :: !acc
      end
    done;
    (!acc, if !past_hi then no_leaf else next_leaf p)
  in
  let rec walk (acc, next) = if next = no_leaf then acc else walk (visit t next (scan acc)) in
  let _, _, first = descend t lo ~at_leaf:(scan []) in
  List.sort (fun (a, _) (b, _) -> Int.compare a b) (walk first)

let min_key t = Option.map fst (next_ge t min_int)

let max_key t =
  let best = ref None in
  iter t (fun ~key ~value:_ -> best := Some key);
  !best

let cardinal t =
  let n = ref 0 in
  iter t (fun ~key:_ ~value:_ -> incr n);
  !n

let height t =
  let _, path, () = descend t min_int ~at_leaf:ignore in
  List.length path + 1

let check_invariants t =
  let exception Bad of string in
  let rec check pid lo hi depth =
    let node = read_node t pid in
    let n = Array.length node.entries in
    (* Keys sorted strictly and within (lo, hi]. *)
    for i = 0 to n - 1 do
      let k, _, _ = node.entries.(i) in
      if i > 0 then begin
        let k', _, _ = node.entries.(i - 1) in
        if k' >= k then raise (Bad "keys not strictly increasing")
      end;
      if node.is_leaf && (k < lo || k > hi) then raise (Bad "leaf key outside bounds")
    done;
    if node.is_leaf then depth
    else begin
      if n = 0 then raise (Bad "empty internal node");
      let depths =
        Array.mapi
          (fun i (k, child, _) ->
            let lo' = if i = 0 then lo else k in
            let hi' = if i = n - 1 then hi else (let k', _, _ = node.entries.(i + 1) in k' - 1) in
            check child lo' hi' (depth + 1))
          node.entries
      in
      Array.iter (fun d -> if d <> depths.(0) then raise (Bad "leaves at unequal depth")) depths;
      depths.(0)
    end
  in
  try
    ignore (check (root t) min_int max_int 1);
    (* Leaf chain must produce globally sorted keys. *)
    let last = ref min_int in
    iter t (fun ~key ~value:_ ->
        if key < !last then raise (Bad "leaf chain out of order");
        last := key);
    Ok ()
  with Bad msg -> Error msg
