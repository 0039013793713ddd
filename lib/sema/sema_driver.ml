(* Orchestration: load cmts, build summaries, run the four rule families,
   apply [@lint.allow] suppressions (shared with the syntactic linter) and
   report. *)

let tool = "ipl_sema"

let run ?build_root ?(source_root = ".") roots =
  let build_root =
    match build_root with
    | Some r -> r
    | None -> Sema_cmt.default_build_root ()
  in
  let units = Sema_cmt.load ~build_root ~source_root roots in
  let table = Sema_summary.build units in
  let per_unit =
    List.concat_map
      (fun u ->
        Sema_tagflow.check table u
        @ Sema_rules.determinism u
        @ Sema_rules.unchecked_result u)
      units
  in
  let findings = per_unit @ Sema_rules.exception_escape ~source_root table in
  (* Suppressions ride on the parsetree walker so [@lint.allow] covers both
     checkers uniformly. *)
  let by_file = Hashtbl.create 16 in
  List.iter
    (fun (f : Lint.Lint_finding.t) ->
      Hashtbl.replace by_file f.Lint.Lint_finding.file ())
    findings;
  let suppressions =
    Hashtbl.fold
      (fun file () acc ->
        let path = Filename.concat source_root file in
        if Sys.file_exists path then
          let r = Lint.Lint_walker.walk ~file (Lint.Lint_source.read_file path) in
          r.Lint.Lint_walker.suppressions @ acc
        else acc)
      by_file []
  in
  Lint.Lint_finding.dedup (Lint.Lint_walker.apply_suppressions suppressions findings)

let dump_summaries ?build_root ?(source_root = ".") ppf roots =
  let build_root =
    match build_root with
    | Some r -> r
    | None -> Sema_cmt.default_build_root ()
  in
  let units = Sema_cmt.load ~build_root ~source_root roots in
  let table = Sema_summary.build units in
  let keys =
    List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) table [])
  in
  List.iter
    (fun k ->
      let s = Hashtbl.find table k in
      let raises = String.concat "," (Sema_summary.SSet.elements s.raises) in
      if raises <> "" || s.settles || s.barriers || s.returns_tag then
        Format.fprintf ppf "%s raises=[%s]%s%s%s@." k raises
          (if s.settles then " settles" else "")
          (if s.barriers then " barriers" else "")
          (if s.returns_tag then " returns-tag" else ""))
    keys

let main ?(ppf = Format.std_formatter) ?json_out ?(rules = []) ?build_root
    ?source_root roots =
  let roots = if roots = [] then [ "lib"; "bin" ] else roots in
  let findings = run ?build_root ?source_root roots in
  let findings =
    if rules = [] then findings
    else
      List.filter
        (fun (f : Lint.Lint_finding.t) -> List.mem f.Lint.Lint_finding.rule rules)
        findings
  in
  Lint.Lint_finding.print_report ~tool ppf findings;
  (match json_out with
  | Some path ->
      let json = Lint.Lint_finding.to_json_string ~tool findings in
      if path = "-" then Format.fprintf ppf "%s@." json
      else (
        let oc = open_out path in
        output_string oc json;
        output_char oc '\n';
        close_out oc)
  | None -> ());
  if Lint.Lint_finding.has_errors findings then 1 else 0
