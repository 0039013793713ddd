(* What one pass of a workload returns to main.ml. *)

type outcome = {
  loop : Harness.loop;
  recovery : Harness.recovery;
  extras : Report.extras;
  check : Harness.check;
  attempted : int;
  failed : int;
  rejected : int;  (** operations the engine refused with [Page_full] *)
  spans : Span.t;
  dev : Harness.Dev.t;
  provenance : (string * Ipl_util.Json.t) list;
  digest : int;
      (** CRC-32 of the recovered content, which oltp-large's eager twin
          must reproduce; 0 on the other workloads *)
}

(* [setups] builds of the system under test; the median time is
   [setup_s] and the last build is the one measured. *)
let setups = 5

let timed_setups build =
  let rec go n times =
    (* Each build starts from a collected heap; the previous build is
       garbage by the time the next one starts. *)
    Gc.full_major ();
    let b, t = Harness.timed_scaled build in
    let times = t :: times in
    if n = 1 then (b, Harness.median (Array.of_list times)) else go (n - 1) times
  in
  go setups []

let crc_string acc s =
  Ipl_util.Checksum.crc32 ~init:acc (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
