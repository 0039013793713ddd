(* The dependency edges are recomputed from the parsetrees (the qualified
   module references Lint_walker collects), so they track what the code
   actually touches — the same information ocamldep extracts — rather than
   what the dune files declare. *)

let check_file ?(siblings = []) ~dir ~file (refs : Lint_walker.ref_site list) =
  match Lint_config.library_of_dir dir with
  | None ->
      if Lint_source.in_lib { Lint_source.path = file; kind = Lint_source.Impl; dir } then
        [
          Lint_finding.make ~rule:"layering" ~severity:(Lint_config.severity_of "layering")
            ~file ~line:1
            (Printf.sprintf
               "library directory %s is not registered in the layering table (Lint_config.libraries)"
               dir);
        ]
      else [] (* bin/ may use every library *)
  | Some lib ->
      List.filter_map
        (fun (r : Lint_walker.ref_site) ->
          if
            List.mem r.Lint_walker.head Lint_config.wrapper_names
            && r.Lint_walker.head <> lib.Lint_config.wrapper
            && (not (List.mem r.Lint_walker.head lib.Lint_config.allowed))
            (* A sibling module shadows a like-named library wrapper inside
               its own library (e.g. Workload inside lib/fault), so such a
               reference is not a cross-library edge. *)
            && not (List.mem r.Lint_walker.head siblings)
          then
            Some
              (Lint_finding.make ~rule:"layering"
                 ~severity:(Lint_config.severity_of "layering") ~file ~line:r.Lint_walker.line
                 (Printf.sprintf "%s (library %s) may not depend on %s"
                    lib.Lint_config.wrapper lib.Lint_config.dir r.Lint_walker.head))
          else None)
        refs
