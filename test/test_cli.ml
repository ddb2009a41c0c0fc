(* Argument errors the command-line tools must classify as usage errors:
   a usage message and cmdliner's usage exit code (124), never an
   uncaught exception (125). The binaries are this test's declared
   dependencies, built in the sibling [bin] directory. *)

let bin exe =
  Filename.concat (Filename.concat (Filename.dirname Sys.executable_name) "../bin") exe

let usage_error ~exe args ~mentions () =
  let err = Filename.temp_file "avdb-cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > /dev/null 2> %s" (Filename.quote (bin exe)) args
         (Filename.quote err))
  in
  let stderr = In_channel.with_open_text err In_channel.input_all in
  Sys.remove err;
  Alcotest.(check int) "usage exit code" 124 code;
  let contains needle =
    let n = String.length needle and h = String.length stderr in
    let rec at i = i + n <= h && (String.sub stderr i n = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) ("mentions " ^ mentions) true (contains mentions);
  Alcotest.(check bool) "prints usage" true (contains "Usage:");
  Alcotest.(check bool) "no uncaught exception" false (contains "uncaught exception")

let suites =
  [
    ( "cli",
      [
        Alcotest.test_case "sim rejects --domains 0" `Quick
          (usage_error ~exe:"avdb_sim_cli.exe" "--domains 0" ~mentions:"--domains");
        Alcotest.test_case "nemesis rejects --disk-faults with --domains 2" `Quick
          (usage_error ~exe:"avdb_nemesis_cli.exe" "--disk-faults --domains 2"
             ~mentions:"--disk-faults");
      ] );
  ]
