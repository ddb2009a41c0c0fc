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

let sim = usage_error ~exe:"avdb_sim_cli.exe"
let nemesis = usage_error ~exe:"avdb_nemesis_cli.exe"

let suites =
  [
    ( "cli",
      [
        Alcotest.test_case "sim rejects --domains 0" `Quick
          (sim "--domains 0" ~mentions:"--domains");
        Alcotest.test_case "nemesis rejects --disk-faults with --domains 2" `Quick
          (nemesis "--disk-faults --domains 2" ~mentions:"--disk-faults");
        (* one case per place a bad value used to raise from *)
        Alcotest.test_case "sim rejects a probability above 1" `Quick
          (sim "--drop 1.5" ~mentions:"--drop");
        Alcotest.test_case "sim rejects --snapshot-every-ms 0" `Quick
          (sim "--snapshot-every-ms 0" ~mentions:"--snapshot-every-ms");
        Alcotest.test_case "sim rejects --latency-ms 0 with --domains 2" `Quick
          (sim "--latency-ms 0 --domains 2" ~mentions:"--latency-ms");
        Alcotest.test_case "sim rejects --maker-weight 0" `Quick
          (sim "--maker-weight 0" ~mentions:"--maker-weight");
        Alcotest.test_case "sim rejects --checkpoints 0" `Quick
          (sim "--checkpoints 0" ~mentions:"--checkpoints");
        Alcotest.test_case "nemesis rejects --sites 0" `Quick
          (nemesis "--sites 0" ~mentions:"--sites");
        Alcotest.test_case "nemesis rejects an empty catalogue" `Quick
          (nemesis "--regular 0 --non-regular 0" ~mentions:"--regular");
      ] );
  ]
