(* The traced run: replays a workload's seeded request stream in-process
   and times the calls into each layer's public functions, from outside
   the layers. End-to-end figures come from the untraced run against a
   real [mhc serve]; this run gives the per-layer split.

   Sections, in order (the deterministic ones first, so the exact counts
   never depend on what ran before them):
   - layers: a fixed prefix of the stream through syntax, core, opt, vm
     and eval, one request at a time on one domain; the counts it
     reports (checker statistics, dictionary operations, minor words)
     repeat exactly for a given seed;
   - cache: the same prefix replayed through a fresh [Cache];
   - pool: closed-loop [Pool.run] driven by this module's own
     [next]/[emit] closures and hook wrappers, untraced and traced at the
     workload's worker count and traced at the other count (1 or 2).
     Where the workload runs one worker, the two-worker run is a probe
     of the cross-domain compile race: its incorrect replies (error
     replies, or a wrong error count from [check]) are counted as
     [pool.race_errors_per_1000], not as failed requests; the same
     stream is judged in full at one worker;
   - serve: [Serve.handle_line] with timed hooks;
   - net: ping round trips through [Tc_net.Net] over a loopback socket. *)

module Pipeline = Typeclasses.Pipeline
module Serve = Typeclasses.Serve
module Cache = Tc_scale.Cache
module Pool = Tc_scale.Pool
module Metrics = Tc_obs.Metrics
module Json = Tc_obs.Json
module Mono = Tc_support.Mono
module Diagnostic = Tc_support.Diagnostic

(* ---- small helpers ---- *)

let now_ns = Mono.now_ns

let time_ns f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float (List.length xs)

(* Exact order statistic: the smallest sample with at least [q] of the
   samples at or below it. *)
let quantile q = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let k = int_of_float (Float.ceil (q *. float n)) - 1 in
      a.(max 0 (min (n - 1) k))

let strategy_of = function
  | "dict-flat" -> Pipeline.Dicts_flat
  | "tags" -> Pipeline.Tags
  | _ -> Pipeline.Dicts

let passes_of s =
  match Tc_opt.Opt.of_string s with Some p -> p | None -> invalid_arg s

let opts_for ?(metrics = Metrics.disabled) (r : Gen.req) =
  { Pipeline.default_options with strategy = strategy_of r.strategy; metrics }

(* ---- results ---- *)

(* A failed request either got an error reply (a failure the server
   reported) or a successful reply with the wrong answer ([wrong]). *)
type tally = { mutable attempted : int; mutable failed : int; mutable wrong : int }

let tally = { attempted = 0; failed = 0; wrong = 0 }

let judge ?(wrong = false) ok =
  tally.attempted <- tally.attempted + 1;
  if not ok then tally.failed <- tally.failed + 1;
  if wrong then tally.wrong <- tally.wrong + 1

(* A serve response line against [r]'s reference: [`Good], [`Failed]
   (an error reply) or [`Wrong] (success claimed with the wrong answer,
   or not JSON). *)
let verdict (r : Gen.req) line =
  match Json.parse line with
  | Error _ -> `Wrong
  | Ok j ->
      let answered = Json.member "ok" j = Some (Json.Bool true) in
      let right =
        match r.expect with
        | Gen.Value v -> Option.bind (Json.member "value" j) Json.to_str = Some v
        | Gen.Errors n -> Option.bind (Json.member "errors" j) Json.to_int = Some n
      in
      if not answered then `Failed else if right then `Good else `Wrong

(* Judge a serve response line against [r]'s reference; true when it is
   correct. *)
let judge_response r line =
  let v = verdict r line in
  judge ~wrong:(v = `Wrong) (v = `Good);
  v = `Good

let metrics : (string * float * string) list ref = ref []
let exact : (string * float) list ref = ref []
let put name unit v = metrics := (name, v, unit) :: !metrics

let put_exact name unit v =
  put name unit v;
  exact := (name, v) :: !exact

(* The workload's serve settings, as the untraced run uses them
   (perfbench/spec.json): cache budget, client connections (requests in
   flight) and pool workers. *)
type settings = { cache_mb : int; conns : int; workers : int }

let layer_prefix = function
  | "hot-exec" -> List.length (Gen.hot_set ~seed:0)
  | _ -> 40

(* ---- layers: syntax, core, types, opt, vm, eval ---- *)

let layers (reqs : Gen.req list) =
  let prelude_ns =
    List.init 10 (fun _ ->
        snd
          (time_ns (fun () ->
               Tc_syntax.Parser.parse_program ~file:"<prelude>"
                 Tc_prelude.Prelude.source)))
  in
  put "syntax.prelude_parse_ms" "ms" (quantile 0.5 (List.map float prelude_ns) /. 1e6);
  let reg = Metrics.create () in
  let parse_us = ref [] and check_ms = ref [] and compile_ms = ref [] in
  let words = ref 0. and unif = ref 0 and reds = ref 0 and holes = ref 0 in
  let compiles = ref 0 in
  let opt_ms = ref [] and lower_ms = ref [] and vm_ms = ref [] and tree_ms = ref [] in
  let sels = ref 0 and mks = ref 0 and execs = ref 0 in
  List.iter
    (fun (r : Gen.req) ->
      let (), ns =
        time_ns (fun () ->
            try
              ignore
                (Tc_syntax.Parser.parse_program_tokens
                   ~recover:(fun _ -> ())
                   (Tc_syntax.Layout.layout
                      (Tc_syntax.Lexer.tokenize ~file:"<bench>" r.src)))
            with Diagnostic.Error _ -> ())
      in
      parse_us := (float ns /. 1e3) :: !parse_us;
      let ck, ns =
        time_ns (fun () -> Pipeline.compile_collect ~opts:(opts_for r) r.src)
      in
      check_ms := (float ns /. 1e6) :: !check_ms;
      let errors =
        List.length
          (List.filter
             (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Error)
             ck.Pipeline.diagnostics)
      in
      (match r.expect with
       | Gen.Errors n -> judge ~wrong:(errors <> n) (errors = n)
       | Gen.Value _ -> ());
      let w0 = Gc.minor_words () in
      match time_ns (fun () -> Pipeline.compile ~opts:(opts_for ~metrics:reg r) r.src) with
      | exception Diagnostic.Error _ -> (
          match r.expect with Gen.Value _ -> judge false | Gen.Errors _ -> ())
      | c, ns ->
          words := !words +. (Gc.minor_words () -. w0);
          incr compiles;
          compile_ms := (float ns /. 1e6) :: !compile_ms;
          let s = c.Pipeline.checker_stats in
          unif := !unif + s.unifications;
          reds := !reds + s.context_reductions;
          holes := !holes + s.holes_created;
          let c, ns = time_ns (fun () -> Pipeline.optimize (passes_of r.opt) c) in
          opt_ms := (float ns /. 1e6) :: !opt_ms;
          let _, ns = time_ns (fun () -> Pipeline.bytecode c) in
          lower_ms := (float ns /. 1e6) :: !lower_ms;
          let vm, ns = time_ns (fun () -> Pipeline.exec ~backend:`Vm c) in
          vm_ms := (float ns /. 1e6) :: !vm_ms;
          let tree, ns = time_ns (fun () -> Pipeline.exec ~backend:`Tree c) in
          tree_ms := (float ns /. 1e6) :: !tree_ms;
          incr execs;
          sels := !sels + tree.Pipeline.counters.selections;
          mks := !mks + tree.Pipeline.counters.dict_constructions;
          match r.expect with
          | Gen.Value v ->
              let ok = vm.Pipeline.rendered = v && tree.Pipeline.rendered = v in
              judge ~wrong:(not ok) ok
          | Gen.Errors _ -> ())
    reqs;
  let per_compile x = float x /. float (max 1 !compiles) in
  put "syntax.user_parse_us" "us" (mean !parse_us);
  put "core.compile_ms" "ms" (mean !compile_ms);
  put "core.check_ms" "ms" (mean !check_ms);
  put_exact "core.compile_kwords" "kwords" (!words /. 1e3 /. float (max 1 !compiles));
  let stage name =
    let ns =
      List.fold_left
        (fun acc (s : Metrics.span_stat) ->
          if s.sp_name = "compile/" ^ name then acc + s.sp_ns else acc)
        0 (Metrics.spans reg)
    in
    put ("compile." ^ name ^ "_ms") "ms" (per_compile ns /. 1e6)
  in
  List.iter stage [ "prelude"; "static"; "desugar"; "infer"; "methods"; "normalize" ];
  put_exact "types.unifications" "count" (per_compile !unif);
  put_exact "types.context_reductions" "count" (per_compile !reds);
  put_exact "types.placeholders" "count" (per_compile !holes);
  put "opt.optimize_ms" "ms" (mean !opt_ms);
  put "vm.lower_ms" "ms" (mean !lower_ms);
  put "vm.exec_ms" "ms" (mean !vm_ms);
  put "eval.exec_ms" "ms" (mean !tree_ms);
  put_exact "eval.dict_selections" "count" (float !sels /. float (max 1 !execs));
  put_exact "eval.dict_constructions" "count" (float !mks /. float (max 1 !execs))

(* ---- scale.cache ---- *)

let cache_call cache (r : Gen.req) =
  let opts = opts_for r in
  if r.op = "check" then ignore (Cache.check cache ~opts ~src:r.src)
  else ignore (Cache.compile_run cache ~opts ~passes:(passes_of r.opt) ~src:r.src)

let counter reg name = Metrics.counter_value (Metrics.counter reg name)

let cache_layer ~set (reqs : Gen.req list) =
  let cache = Cache.create ~max_bytes:(set.cache_mb * 1024 * 1024) () in
  let reg = Cache.metrics cache in
  let hit_us = ref [] and miss_ms = ref [] in
  let call r =
    let h0 = counter reg "scale/cache/hits" in
    let (), ns = time_ns (fun () -> cache_call cache r) in
    if counter reg "scale/cache/hits" > h0 then hit_us := (float ns /. 1e3) :: !hit_us
    else miss_ms := (float ns /. 1e6) :: !miss_ms
  in
  List.iter call reqs;
  let n = List.length reqs in
  let hits = counter reg "scale/cache/hits" in
  let evictions = counter reg "scale/cache/evictions" in
  (* probe: the most recent requests again, so every workload times
     hits (cold-compile's stream never repeats on its own) *)
  List.iteri (fun i r -> if i >= n - 10 then call r) reqs;
  put "cache.hit_ratio" "ratio" (float hits /. float (max 1 n));
  put "cache.hit_us" "us" (quantile 0.5 !hit_us);
  put "cache.miss_ms" "ms" (quantile 0.5 !miss_ms);
  put "cache.evictions_per_100" "count" (100. *. float evictions /. float (max 1 n))

(* ---- scale.pool ---- *)

type pool_result = {
  good : int;        (* correct responses *)
  replies : int;
  errors : int;      (* incorrect replies of a race probe *)
  seconds : float;
  waits_ms : float list;
  majors : int;
}

let cache_hooks ?(on_enter = fun _ -> ()) ?(on_exit = fun _ -> ()) cache =
  {
    Serve.no_hooks with
    Serve.compile =
      Some
        (fun ~opts ~passes ~src ->
          on_enter src;
          Fun.protect ~finally:(fun () -> on_exit src) (fun () ->
              Cache.compile_run cache ~opts ~passes ~src));
    check =
      Some
        (fun ~opts ~src ->
          on_enter src;
          Fun.protect ~finally:(fun () -> on_exit src) (fun () ->
              Cache.check cache ~opts ~src));
  }

(* One closed-loop pool run: at most [limit] requests in flight, like
   the untraced run's client connections; stops handing out lines after
   [seconds]. With [traced], the handover time of every line and the
   entry time of its compile/check hook are recorded. With [probe],
   incorrect replies are counted in [errors] instead of being judged. *)
let pool_run ~set ~workers ~limit ~traced ~probe ~seconds ~warmup (reqs : Gen.req array) =
  let cache = Cache.create ~max_bytes:(set.cache_mb * 1024 * 1024) () in
  let lock = Mutex.create () and cond = Condition.create () in
  let handed : (string, int Queue.t) Hashtbl.t = Hashtbl.create 64 in
  let waits = ref [] in
  let on_enter src =
    let t = now_ns () in
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt handed src with
        | Some q when not (Queue.is_empty q) ->
            waits := (float (t - Queue.pop q) /. 1e6) :: !waits
        | _ -> ())
  in
  let hooks = if traced then cache_hooks ~on_enter cache else cache_hooks cache in
  let config = { Serve.default_config with Serve.hooks } in
  let warm = Serve.create ~config () in
  List.iter (fun (r : Gen.req) -> ignore (Serve.handle_line warm r.line)) warmup;
  let inflight = ref 0 and next_i = ref 0 and emitted = ref 0 and good = ref 0 in
  let errors = ref 0 in
  let t0 = now_ns () in
  let stop_at = t0 + int_of_float (seconds *. 1e9) in
  let next () =
    Mutex.protect lock (fun () ->
        while !inflight >= limit do
          Condition.wait cond lock
        done;
        if now_ns () >= stop_at || !next_i >= Array.length reqs then None
        else begin
          let r = reqs.(!next_i) in
          incr next_i;
          incr inflight;
          if traced then begin
            let q =
              match Hashtbl.find_opt handed r.src with
              | Some q -> q
              | None ->
                  let q = Queue.create () in
                  Hashtbl.replace handed r.src q;
                  q
            in
            Queue.push (now_ns ()) q
          end;
          Some r.line
        end)
  in
  let emit line =
    Mutex.protect lock (fun () ->
        let r = reqs.(!emitted) in
        if probe then (if verdict r line = `Good then incr good else incr errors)
        else if judge_response r line then incr good;
        incr emitted;
        decr inflight;
        Condition.signal cond)
  in
  let m0 = (Gc.quick_stat ()).major_collections in
  ignore (Pool.run ~workers ~config ~next ~emit ());
  let seconds = float (now_ns () - t0) /. 1e9 in
  {
    good = !good;
    replies = !emitted;
    errors = !errors;
    seconds;
    waits_ms = !waits;
    majors = (Gc.quick_stat ()).major_collections - m0;
  }

(* Untraced and traced runs alternate in three pairs (U T U T U T, then
   the other worker count), so drift in host speed falls on both sides of
   the overhead comparison alike. *)
let pool_layer ~set ~seconds ~warmup reqs =
  let primary = set.workers in
  let other = if primary = 1 then 2 else 1 in
  (* at least as many requests in flight as workers, so at two workers
     two compiles can overlap even where the workload has one connection *)
  let run ~workers ~traced =
    pool_run ~set ~workers ~limit:(max set.conns workers) ~traced
      ~probe:(workers > primary) ~seconds:(seconds /. 8.) ~warmup reqs
  in
  let both a b =
    {
      good = a.good + b.good;
      replies = a.replies + b.replies;
      errors = a.errors + b.errors;
      seconds = a.seconds +. b.seconds;
      waits_ms = a.waits_ms @ b.waits_ms;
      majors = a.majors + b.majors;
    }
  in
  let pairs =
    List.init 3 (fun _ ->
        let u = run ~workers:primary ~traced:false in
        (u, run ~workers:primary ~traced:true))
  in
  let alt = run ~workers:other ~traced:true in
  let sum = function p :: ps -> List.fold_left both p ps | [] -> assert false in
  let untraced = sum (List.map fst pairs) and traced = sum (List.map snd pairs) in
  let rps p = float p.good /. p.seconds in
  let w1, w2 = if primary = 1 then (traced, alt) else (alt, traced) in
  put "pool.queue_wait_ms_p50" "ms" (quantile 0.5 traced.waits_ms);
  put "pool.queue_wait_ms_p99" "ms" (quantile 0.99 traced.waits_ms);
  put "pool.scaling_x" "x" (rps w2 /. rps w1);
  put "pool.race_errors_per_1000" "count" (1000. *. float w2.errors /. float (max 1 w2.replies));
  put "gc.major_per_100" "count" (100. *. float traced.majors /. float (max 1 traced.good));
  put "trace.goodput_rps" "req/s" (rps traced);
  put "trace.untraced_goodput_rps" "req/s" (rps untraced);
  put "trace.overhead_pct" "%" (100. *. (rps untraced -. rps traced) /. rps untraced)

(* ---- serve ---- *)

let serve_layer ~set ~seconds ~warmup (reqs : Gen.req array) =
  let cache = Cache.create ~max_bytes:(set.cache_mb * 1024 * 1024) () in
  let hook_ns = ref 0 and entered = ref 0 in
  let hooks =
    cache_hooks cache
      ~on_enter:(fun _ -> entered := now_ns ())
      ~on_exit:(fun _ -> hook_ns := !hook_ns + (now_ns () - !entered))
  in
  let srv = Serve.create ~config:{ Serve.default_config with Serve.hooks } () in
  List.iter (fun (r : Gen.req) -> ignore (Serve.handle_line srv r.line)) warmup;
  let exec_ns () =
    List.fold_left
      (fun acc (s : Metrics.span_stat) -> if s.sp_name = "exec" then acc + s.sp_ns else acc)
      0 (Metrics.spans (Serve.metrics srv))
  in
  let stop_at = now_ns () + int_of_float (seconds *. 1e9) in
  let overhead = ref [] in
  let i = ref 0 in
  while !i < Array.length reqs && (now_ns () < stop_at || !i < 10) do
    let r = reqs.(!i) in
    hook_ns := 0;
    let e0 = exec_ns () in
    let resp, ns = time_ns (fun () -> Serve.handle_line srv r.line) in
    ignore (judge_response r resp);
    overhead := (float (ns - !hook_ns - (exec_ns () - e0)) /. 1e3) :: !overhead;
    incr i
  done;
  put "serve.overhead_us" "us" (quantile 0.5 !overhead)

(* ---- net ---- *)

let net_layer () =
  let srv = Tc_net.Net.create ~host:"127.0.0.1" ~port:0 () in
  let th = Thread.create (fun () -> ignore (Tc_net.Net.run srv ~workers:1 ())) () in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, Tc_net.Net.port srv));
  let ic = Unix.in_channel_of_descr sock and oc = Unix.out_channel_of_descr sock in
  let rtt =
    List.init 300 (fun _ ->
        let line, ns =
          time_ns (fun () ->
              output_string oc "{\"op\":\"ping\"}\n";
              flush oc;
              input_line ic)
        in
        judge (String.length line > 0);
        float ns /. 1e3)
  in
  Unix.close sock;
  Tc_net.Net.drain srv;
  Thread.join th;
  put "net.ping_rtt_us" "us" (quantile 0.5 (List.tl rtt))

(* ---- entry point ---- *)

let run ~corpus_dir ~workload ~seed ~seconds ~set =
  let gen part count = Gen.stream ~corpus_dir ~workload ~seed ~part ~count in
  let warmup = gen 1 (Gen.warmup_count workload) in
  let timed = Array.of_list (gen 0 20_000) in
  let prefix n = Array.to_list (Array.sub timed 0 n) in
  let digest =
    Digest.to_hex
      (Digest.string (String.concat "\n" (List.map (fun (r : Gen.req) -> r.line) (warmup @ prefix 2000))))
  in
  let t0 = now_ns () in
  layers (prefix (layer_prefix workload));
  cache_layer ~set (prefix 120);
  pool_layer ~set ~seconds ~warmup timed;
  serve_layer ~set ~seconds:(seconds /. 8.) ~warmup timed;
  net_layer ();
  (* floats with every digit (the repo's JSON printer keeps six) *)
  let num v = Printf.sprintf "%.17g" v in
  let obj fields = "{" ^ String.concat "," fields ^ "}" in
  let key k = Json.to_line (Json.Str k) in
  obj
    [
      key "workload" ^ ":" ^ key workload;
      key "seed" ^ ":" ^ string_of_int seed;
      key "stream_md5" ^ ":" ^ key digest;
      key "traced_s" ^ ":" ^ num (float (now_ns () - t0) /. 1e9);
      key "attempted" ^ ":" ^ string_of_int tally.attempted;
      key "failed" ^ ":" ^ string_of_int tally.failed;
      key "wrong" ^ ":" ^ string_of_int tally.wrong;
      key "metrics" ^ ":"
      ^ obj
          (List.rev_map
             (fun (n, v, u) ->
               key n ^ ":" ^ obj [ key "value" ^ ":" ^ num v; key "unit" ^ ":" ^ key u ])
             !metrics);
      key "exact" ^ ":" ^ obj (List.rev_map (fun (n, v) -> key n ^ ":" ^ num v) !exact);
    ]
