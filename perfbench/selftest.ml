(* Self-tests of the benchmark's workloads:

     dune build @perfbench/benchtest

   - every workload's output checks pass on two different seeds, and the
     two seeds generate different inputs;
   - the same seed regenerates identical inputs and identical exact counts;
   - [simulate] and [serve] give identical exact counts at jobs=1 and
     jobs=2 (skipped on a single-core host). *)

open Perfbench

let failures = ref 0

let report name ok detail =
  Printf.printf "%s %s%s\n%!" (if ok then "ok  " else "FAIL") name
    (if ok || detail = "" then "" else ": " ^ detail);
  if not ok then incr failures

let counts pass =
  Array.map (fun r -> r.Workloads.counts) pass.Workloads.results

let run spec ~jobs ~seed =
  let p = spec.Workloads.setup ~jobs ~seed in
  let pass = Workloads.run_pass p in
  let errors = pass.Workloads.pass_errors @ Workloads.deep_checks pass in
  (p.Workloads.fingerprint (), pass, errors)

let () =
  List.iter
    (fun spec ->
      let name = spec.Workloads.name in
      let fa, pa, ea = run spec ~jobs:1 ~seed:1 in
      let fb, pb, eb = run spec ~jobs:1 ~seed:1 in
      let fc, _, ec = run spec ~jobs:1 ~seed:2 in
      report
        (name ^ ": output checks pass on seed 1")
        (ea = []) (String.concat "; " ea);
      report
        (name ^ ": output checks pass on seed 2")
        (ec = []) (String.concat "; " ec);
      report (name ^ ": same seed, same inputs and counts")
        (fa = fb && counts pa = counts pb && eb = []) "";
      report (name ^ ": another seed, other inputs") (fa <> fc) "";
      if spec.Workloads.traced_jobs > 1 then begin
        let _, pj, ej = run spec ~jobs:2 ~seed:1 in
        report (name ^ ": jobs=1 and jobs=2 give the same counts")
          (counts pa = counts pj && ej = []) (String.concat "; " ej)
      end)
    Workloads.all;
  if Workloads.nproc < 2 then print_endline "skip jobs=2 comparisons: one core";
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end
