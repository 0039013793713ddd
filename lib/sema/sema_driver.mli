(** Orchestration: load cmts under the build context, build the summary
    table, run the four rule families, apply [@lint.allow] suppressions
    and report. *)

val run :
  ?build_root:string ->
  ?source_root:string ->
  string list ->
  Lint.Lint_finding.t list
(** Analyze the units under the given roots. [build_root] defaults to
    [_build/default] when present, else ["."] (inside a build context);
    [source_root] defaults to ["."]. Results are suppressed, deduplicated
    and sorted. *)

val dump_summaries :
  ?build_root:string ->
  ?source_root:string ->
  Format.formatter ->
  string list ->
  unit
(** Debug aid: print every function summary with a non-trivial fact
    (raises/settles/barriers/returns-tag). *)

val main :
  ?ppf:Format.formatter ->
  ?json_out:string ->
  ?rules:string list ->
  ?build_root:string ->
  ?source_root:string ->
  string list ->
  int
(** Report on the roots (default: lib bin), optionally filtered to
    the given rule ids and mirrored to a JSON file ([-] for stdout).
    Returns 1 when any error-severity finding remains, else 0. *)
