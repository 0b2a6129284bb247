(* auditcheck: validate the audit JSONL files a campaign writes with
   [manroute figure --audit DIR]. Each line is checked against the fixed
   manroute-audit/1 shape the writer emits (balanced object, schema,
   figure/x/trial/kinds/cells); no external JSON tool needed. Exit 0 on
   success, 1 with the first problem otherwise.

   usage: auditcheck audit FILE... *)

let () =
  match Array.to_list Sys.argv with
  | _ :: "audit" :: (_ :: _ as files) ->
      let ok = ref true in
      List.iter
        (fun path ->
          match Harness.Audit.validate_file path with
          | Ok n -> Printf.printf "%s: %d records\n" path n
          | Error msg ->
              Printf.eprintf "%s: invalid audit artifact: %s\n" path msg;
              ok := false)
        files;
      exit (if !ok then 0 else 1)
  | _ ->
      prerr_endline "usage: auditcheck audit FILE...";
      exit 2
