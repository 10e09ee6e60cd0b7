(* pb — the serve benchmark's OCaml side.

     pb gen --workload W --seed N --part P [--count K] [--corpus DIR]
       one record per line: the request line plus its reference answer
       (part 1 is the warm-up stream, by default its full length; part 0
       the timed stream)
     pb selftest --seed N --count K [--corpus DIR]
       cross-checks the generator's references against single-domain
       Pipeline runs; exits 1 on any disagreement
     pb traced --workload W --seed N --seconds S --cache-mb M --conns C
               --workers K [--corpus DIR]
       the in-process traced run; prints one JSON line of per-layer
       metrics *)

module Pipeline = Typeclasses.Pipeline
module Diagnostic = Tc_support.Diagnostic

let usage () =
  prerr_endline
    "usage: pb (gen|selftest|traced) [--workload W] [--seed N] [--part P] \
     [--count K] [--seconds S] [--cache-mb M] [--conns C] [--workers K] \
     [--corpus DIR]";
  exit 2

let arg args name default =
  let rec go = function
    | k :: v :: _ when k = "--" ^ name -> v
    | _ :: rest -> go rest
    | [] -> default
  in
  go args

(* Compile and run (or check) one generated request on the calling
   domain, without serve, cache or pool, and compare with its
   reference. *)
let reference_mismatch (r : Gen.req) =
  let opts = Traced.opts_for r in
  match r.expect with
  | Gen.Errors n ->
      let ck = Pipeline.compile_collect ~opts r.src in
      let got =
        List.length
          (List.filter
             (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Error)
             ck.Pipeline.diagnostics)
      in
      if got = n then None
      else Some (Printf.sprintf "expected %d errors, Pipeline reports %d" n got)
  | Gen.Value v -> (
      match
        let c = Pipeline.optimize (Traced.passes_of r.opt) (Pipeline.compile ~opts r.src) in
        let backend = if r.backend = "vm" then `Vm else `Tree in
        (Pipeline.exec ~backend c).Pipeline.rendered
      with
      | got when got = v -> None
      | got -> Some (Printf.sprintf "expected %s, Pipeline renders %s" v got)
      | exception e -> Some ("Pipeline raised " ^ Printexc.to_string e))

let selftest ~corpus_dir ~seed ~count =
  let reqs =
    List.concat_map
      (fun workload ->
        let n = if workload = "hot-exec" then List.length (Gen.hot_set ~seed) else count in
        Gen.stream ~corpus_dir ~workload ~seed ~part:1 ~count:(Gen.warmup_count workload)
        @ Gen.stream ~corpus_dir ~workload ~seed ~part:0 ~count:n)
      Gen.workloads
  in
  let bad = ref 0 in
  List.iter
    (fun (r : Gen.req) ->
      match reference_mismatch r with
      | None -> ()
      | Some msg ->
          incr bad;
          Printf.printf "MISMATCH (%s) %s\n%s\n" r.tag msg r.src)
    reqs;
  Printf.printf "selftest seed %d: %d requests, %d mismatches\n" seed (List.length reqs) !bad;
  if !bad > 0 then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: cmd :: args -> (
      let corpus_dir = arg args "corpus" "perfbench/corpus" in
      let workload = arg args "workload" "cold-compile" in
      let seed = int_of_string (arg args "seed" "1") in
      if not (List.mem workload Gen.workloads) then usage ();
      match cmd with
      | "gen" ->
          let part = int_of_string (arg args "part" "0") in
          let default = if part = 1 then Gen.warmup_count workload else 100 in
          let count = int_of_string (arg args "count" (string_of_int default)) in
          List.iter
            (fun r -> print_endline (Gen.to_record r))
            (Gen.stream ~corpus_dir ~workload ~seed ~part ~count)
      | "selftest" ->
          selftest ~corpus_dir ~seed ~count:(int_of_string (arg args "count" "300"))
      | "traced" ->
          let seconds = float_of_string (arg args "seconds" "10") in
          let int name = int_of_string (arg args name "1") in
          let set =
            { Traced.cache_mb = int "cache-mb"; conns = int "conns"; workers = int "workers" }
          in
          print_endline (Traced.run ~corpus_dir ~workload ~seed ~seconds ~set)
      | _ -> usage ())
  | _ -> usage ()
