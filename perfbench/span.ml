(* Outside-in span recorder. The harness wraps each call it makes into a
   layer of the engine; a span keeps the call's name, its parent span,
   the transaction it belongs to, and its start and end on both clocks:
   host nanoseconds (monotonic) and the simulated device clock.

   Spans are aggregated as they close: per name, every host duration and
   the summed simulated time; and for the ledger, the simulated time of
   top-level spans and of leaf spans (spans that opened no child). The
   first [keep] spans are also kept whole, in memory, and written out
   once the run is over.

   With tracing off, [with_span] is a plain call: the untraced run that
   reports the end-to-end metrics pays nothing for the recorder. *)

module Clock = Ipl_util.Clock

type span = {
  id : int;
  parent : int;  (** -1 for a top-level span *)
  name : string;
  txn : int;  (** the harness's transaction number, -1 outside one *)
  host_start : int;  (** ns *)
  host_end : int;
  sim_start : float;  (** simulated seconds *)
  sim_end : float;
}

(* An open span. Its transaction id can be set after it opened: a
   transaction span opens before its first call hands out an id. *)
type frame = { fid : int; mutable ftxn : int; mutable has_child : bool }

(* Growable float buffer. *)
type samples = { mutable data : Float.Array.t; mutable len : int }

type by_name = { host : samples; mutable sim : float }

(* Spans kept whole for the output file. *)
let keep = 100_000

type t = {
  traced : bool;
  sim : unit -> float;
  mutable kept : span list;  (** newest first, at most [keep] *)
  mutable next_id : int;
  mutable stack : frame list;
  names : (string, by_name) Hashtbl.t;
  leaf_sim : (string, float ref) Hashtbl.t;
  mutable top_sim : float;
}

let create ~traced ~sim =
  {
    traced;
    sim;
    kept = [];
    next_id = 0;
    stack = [];
    names = Hashtbl.create 32;
    leaf_sim = Hashtbl.create 32;
    top_sim = 0.0;
  }

let now_ns () = Int64.to_int (Clock.now_ns ())

let push s x =
  if s.len = Float.Array.length s.data then begin
    let d = Float.Array.make (2 * s.len) 0.0 in
    Float.Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  Float.Array.set s.data s.len x;
  s.len <- s.len + 1

let close t name frame parent ~host_start ~sim_start =
  let sim_end = t.sim () and host_end = now_ns () in
  let agg =
    match Hashtbl.find_opt t.names name with
    | Some a -> a
    | None ->
        let a = { host = { data = Float.Array.make 64 0.0; len = 0 }; sim = 0.0 } in
        Hashtbl.replace t.names name a;
        a
  in
  push agg.host (float_of_int (host_end - host_start) *. 1e-9);
  agg.sim <- agg.sim +. (sim_end -. sim_start);
  if parent < 0 then t.top_sim <- t.top_sim +. (sim_end -. sim_start);
  if not frame.has_child then begin
    match Hashtbl.find_opt t.leaf_sim name with
    | Some r -> r := !r +. (sim_end -. sim_start)
    | None -> Hashtbl.replace t.leaf_sim name (ref (sim_end -. sim_start))
  end;
  if frame.fid < keep then
    t.kept <-
      { id = frame.fid; parent; name; txn = frame.ftxn; host_start; host_end; sim_start; sim_end }
      :: t.kept

(* Children inherit the transaction id of the innermost open span. *)
let with_span t name f =
  if not t.traced then f ()
  else begin
    let fid = t.next_id in
    t.next_id <- fid + 1;
    let parent, ftxn =
      match t.stack with
      | p :: _ ->
          p.has_child <- true;
          (p.fid, p.ftxn)
      | [] -> (-1, -1)
    in
    let frame = { fid; ftxn; has_child = false } in
    t.stack <- frame :: t.stack;
    let host_start = now_ns () and sim_start = t.sim () in
    let finish () =
      t.stack <- List.tl t.stack;
      close t name frame parent ~host_start ~sim_start
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let set_txn t id = match t.stack with f :: _ -> f.ftxn <- id | [] -> ()

(* Host durations (seconds) of the spans with one of [names]. *)
let host_samples t names =
  Array.concat
    (List.map
       (fun n ->
         match Hashtbl.find_opt t.names n with
         | Some a -> Array.init a.host.len (Float.Array.get a.host.data)
         | None -> [||])
       names)

let sim_total t names =
  List.fold_left
    (fun acc n -> match Hashtbl.find_opt t.names n with Some a -> acc +. a.sim | None -> acc)
    0.0 names

let host_total t names = Array.fold_left ( +. ) 0.0 (host_samples t names)

(* Simulated time of the leaf spans with one of [names]. *)
let leaf_sim t names =
  List.fold_left
    (fun acc n -> match Hashtbl.find_opt t.leaf_sim n with Some r -> acc +. !r | None -> acc)
    0.0 names

let top_sim t = t.top_sim
let recorded t = t.next_id

let write oc t ~header =
  output_string oc (Ipl_util.Json.to_string header);
  output_char oc '\n';
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"txn\":%d,\"host_start_ns\":%d,\"host_end_ns\":%d,\"sim_start_s\":%.17g,\"sim_end_s\":%.17g}\n"
        s.id s.parent s.name s.txn s.host_start s.host_end s.sim_start s.sim_end)
    (List.rev t.kept)
