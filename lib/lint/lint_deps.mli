(** Layering rule: checks the module references of one file against the
    dependency whitelist in {!Lint_config.libraries}. *)

val check_file :
  ?siblings:string list ->
  dir:string ->
  file:string ->
  Lint_walker.ref_site list ->
  Lint_finding.t list
(** [check_file ~siblings ~dir ~file refs] returns a [layering] finding for
    every reference to an internal library wrapper that [dir]'s library is
    not allowed to depend on. [siblings] are the module names of the file's
    own library; they shadow like-named wrappers and are skipped. Files
    under unregistered lib/ directories get a finding demanding
    registration; bin/ files are exempt. *)
