(* The machine-speed probe. On a shared host the speed a process gets
   drifts by tens of percent over minutes as neighbours come and go, and
   every workload drifts with it. A fixed loop timed before each
   repetition tracks that drift, and dividing it out makes runs taken
   minutes apart comparable.

   The probe allocates nothing and calls nothing from the system. It walks
   two integer arrays along data-dependent paths: a 4 MiB one, bound by
   the memory hierarchy's latency, and a 256 KiB one that stays in the
   core's own caches. It runs right after the previous repetition, so it
   starts from the caches that repetition left behind, and the system can
   move it that way: on a 2-vCPU shared Xeon VM its median was 27.1 ms
   after sharded-1000 repetitions and 28.8 ms after scm-hetero ones. A
   change to a workload's memory footprint can therefore shift its scaled
   throughput by a few percent. Timing a second, warm pass instead removes
   that effect, but it tracked the host's drift worse.

   On the same VM, in four windows of ten runs per workload, scaling
   narrowed the widest quartile spread of median throughput (as a share
   of the median) from 27% to 16% on sharded-1000, 17% to 9% on
   strong-mix and 15% to 6% on scm-hetero; delay-firehose stayed at 10%.
   For set-up time the effect was mixed (27% to 24% on sharded-1000, 8% to
   16% on scm-hetero), but across runs set-up time rose and fell with the
   probe (correlation 0.3-0.9), as throughput did (0.5-0.9). Scaling
   therefore keeps a slower or faster hour on the host out of both
   metrics' medians. *)

let walk ~size ~steps =
  let mask = size - 1 in
  let a = Array.init size (fun i -> (i * 0x2545F491) land mask) in
  fun () ->
    let x = ref 0 in
    for i = 0 to steps - 1 do
      let j = (!x + i) land mask in
      x := a.(j);
      a.(j) <- (!x + i) land mask
    done;
    ignore (Sys.opaque_identity !x)

let far = lazy (walk ~size:(1 lsl 19) ~steps:250_000)
let near = lazy (walk ~size:(1 lsl 15) ~steps:2_000_000)

(* The median time of one probe, in ns, over the runs the bounds were set
   from; wall-clock throughput is scaled to this speed. *)
let reference_ns = 28_000_000.

let probe () =
  let far = Lazy.force far and near = Lazy.force near in
  let t0 = Spans.now_ns () in
  far ();
  near ();
  float_of_int (Spans.now_ns () - t0)
