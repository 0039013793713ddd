let lint_file ?(siblings = []) (f : Lint_source.file) =
  let source = Lint_source.read_file f.Lint_source.path in
  let r = Lint_walker.walk ~file:f.Lint_source.path source in
  let layering =
    Lint_deps.check_file ~siblings ~dir:f.Lint_source.dir ~file:f.Lint_source.path
      r.Lint_walker.refs
  in
  Lint_walker.apply_suppressions r.Lint_walker.suppressions
    (r.Lint_walker.findings @ layering)

let run roots =
  let files = Lint_source.scan roots in
  let per_file =
    List.concat_map (fun f -> lint_file ~siblings:(Lint_source.siblings files f.Lint_source.dir) f) files
  in
  Lint_finding.dedup (per_file @ Lint_source.mli_coverage files)

(* Minimal flag parsing shared by the two thin executables:
   [--json FILE] mirrors the report as JSON, [--rule ID] (repeatable)
   filters to the given rules, everything else is a root. *)
let parse_args args =
  let rec go json rules roots = function
    | "--json" :: path :: rest -> go (Some path) rules roots rest
    | "--rule" :: id :: rest -> go json (id :: rules) roots rest
    | arg :: rest -> go json rules (arg :: roots) rest
    | [] -> (json, List.rev rules, List.rev roots)
  in
  go None [] [] args

let main ?(ppf = Format.std_formatter) ?json_out ?(rules = []) roots =
  let roots = if roots = [] then [ "lib"; "bin" ] else roots in
  let findings = run roots in
  let findings =
    if rules = [] then findings
    else List.filter (fun f -> List.mem f.Lint_finding.rule rules) findings
  in
  Lint_finding.print_report ppf findings;
  (match json_out with
  | Some path ->
      let json = Lint_finding.to_json_string ~tool:"ipl_lint" findings in
      if path = "-" then Format.fprintf ppf "%s@." json
      else (
        let oc = open_out path in
        output_string oc json;
        output_char oc '\n';
        close_out oc)
  | None -> ());
  if Lint_finding.has_errors findings then 1 else 0
