(* Seeded request streams for the serve benchmark.

   Every request is paired with its reference answer, computed here from
   how the request was built — never by running mhc: a [run] request
   carries the rendered value of [main], a [check] request the number of
   errors the checker must report. The same (workload, seed, part,
   count) always yields byte-identical lines. *)

module Json = Tc_obs.Json

type expect = Value of string | Errors of int

type req = {
  line : string;  (* the exact request line sent to mhc *)
  src : string;
  op : string;    (* "run" | "check" *)
  strategy : string;
  opt : string;
  backend : string;
  expect : expect;
  tag : string;   (* what the request is for; see each generator *)
}

let workloads = [ "cold-compile"; "hot-exec"; "edit-check" ]

(* One independent generator per (seed, part, index), so request [i] does
   not depend on how many requests came before it. *)
let rng seed part i = Random.State.make [| 0x5eed; seed; part; i |]
let pick st a = a.(Random.State.int st (Array.length a))
let range st lo hi = lo + Random.State.int st (hi - lo + 1)

(* Choice from weighted alternatives. *)
let weighted st alts =
  let total = List.fold_left (fun s (w, _) -> s + w) 0 alts in
  let r = Random.State.int st total in
  let rec go acc = function
    | [ (_, x) ] -> x
    | (w, x) :: rest -> if r < acc + w then x else go (acc + w) rest
    | [] -> invalid_arg "weighted"
  in
  go 0 alts

let make ~id ~op ~src ?(strategy = "dict") ?(opt = "none") ?(backend = "tree")
    ~expect ~tag () =
  let fields =
    [ ("id", Json.Int id); ("op", Json.Str op) ]
    @ (if op = "run" then
         [
           ("strategy", Json.Str strategy);
           ("opt", Json.Str opt);
           ("backend", Json.Str backend);
         ]
       else [])
    @ [ ("src", Json.Str src) ]
  in
  {
    line = Json.to_line (Json.Obj fields);
    src;
    op;
    strategy;
    opt;
    backend;
    expect;
    tag;
  }

let render_ints xs = "[" ^ String.concat ", " (List.map string_of_int xs) ^ "]"

(* Rendering of [x * a + b] with a non-negative literal on each side. *)
let linear x a b =
  if b >= 0 then Printf.sprintf "%s * %d + %d" x a b
  else Printf.sprintf "%s * %d - %d" x a (-b)

(* ---- cold-compile: distinct class-heavy programs ------------------- *)

(* A generated program: [nt] data types [Tj = Tj Int]; classes whose
   methods map a value to an Int; instances over Int and the data types,
   each method a linear function of the wrapped Int (or of a superclass
   method, so superclass selection is exercised); overloaded recursive
   functions over one class; and a [main] listing a few calls. *)

type ty = Int_ty | Data of int

type cls = {
  sup : int option;
  nm : int;                        (* methods *)
  insts : (ty * (int * int) array) list;
      (* instance type -> per-method (a, b): m x = a*x + b, except that
         method 0 of a subclass is [super_m0 v + b] *)
}

type fn = {
  fcls : int;
  base_m : int;                 (* method of fcls for k <= 0 *)
  terms : (int * int * int) list;
      (* (class, method, coefficient): methods of fcls or its ancestors *)
  call : int option;            (* f_j v 1, for an earlier j on an ancestor class *)
}

let rec ancestors classes c =
  c :: (match classes.(c).sup with None -> [] | Some s -> ancestors classes s)

let rec method_value classes c m ty x =
  let coeffs = List.assoc ty classes.(c).insts in
  let a, b = coeffs.(m) in
  match classes.(c).sup with
  | Some s when m = 0 -> method_value classes s 0 ty x + b
  | _ -> (a * x) + b

let rec fn_value classes fns i ty x k =
  let f = fns.(i) in
  if k <= 0 then method_value classes f.fcls f.base_m ty x
  else
    let term =
      List.fold_left
        (fun acc (c, m, coef) -> acc + (coef * method_value classes c m ty x))
        0 f.terms
      + (match f.call with
         | None -> 0
         | Some j -> fn_value classes fns j ty x 1)
    in
    term + fn_value classes fns i ty x (k - 1)

let ty_name = function Int_ty -> "Int" | Data j -> Printf.sprintf "T%d" j

let cold_program ~seed ~part i =
  let st = rng seed part i in
  let nt = range st 1 3 in
  let all_tys = Int_ty :: List.init nt (fun j -> Data j) in
  let subset tys =
    let kept = List.filter (fun _ -> Random.State.bool st) tys in
    if kept = [] then [ List.nth tys (Random.State.int st (List.length tys)) ]
    else kept
  in
  let ncls = range st 1 4 in
  let classes = Array.make ncls { sup = None; nm = 1; insts = [] } in
  for c = 0 to ncls - 1 do
    let sup = if c > 0 && Random.State.bool st then Some (Random.State.int st c) else None in
    let nm = range st 1 3 in
    let tys =
      match sup with
      | None -> subset all_tys
      | Some s -> subset (List.map fst classes.(s).insts)
    in
    let insts =
      List.map
        (fun ty ->
          (ty, Array.init nm (fun _ -> (range st 1 3, range st (-5) 9))))
        tys
    in
    classes.(c) <- { sup; nm; insts }
  done;
  let nf = range st 1 4 in
  let fns = Array.make nf { fcls = 0; base_m = 0; terms = []; call = None } in
  for i = 0 to nf - 1 do
    let fcls = Random.State.int st ncls in
    let anc = Array.of_list (ancestors classes fcls) in
    let terms =
      List.init (range st 1 2) (fun _ ->
          let c = pick st anc in
          (c, Random.State.int st classes.(c).nm, range st 1 3))
    in
    let callable =
      List.filter (fun j -> Array.mem fns.(j).fcls anc) (List.init i Fun.id)
    in
    let call =
      if callable <> [] && Random.State.bool st then
        Some (List.nth callable (Random.State.int st (List.length callable)))
      else None
    in
    fns.(i) <- { fcls; base_m = Random.State.int st classes.(fcls).nm; terms; call }
  done;
  let b = Buffer.create 1024 in
  let pr fmt = Printf.bprintf b fmt in
  pr "-- perfbench cold-compile seed %d part %d program %d\n" seed part i;
  for j = 0 to nt - 1 do
    pr "data T%d = T%d Int\n" j j
  done;
  Array.iteri
    (fun c cl ->
      (match cl.sup with
       | None -> pr "\nclass K%d a where\n" c
       | Some s -> pr "\nclass K%d a => K%d a where\n" s c);
      for m = 0 to cl.nm - 1 do
        pr "  k%dm%d :: a -> Int\n" c m
      done)
    classes;
  Array.iteri
    (fun c cl ->
      List.iter
        (fun (ty, coeffs) ->
          pr "\ninstance K%d %s where\n" c (ty_name ty);
          let pat, v =
            match ty with
            | Int_ty -> ("x", "x")
            | Data j -> (Printf.sprintf "(T%d x)" j, Printf.sprintf "(T%d x)" j)
          in
          Array.iteri
            (fun m (a, bb) ->
              match cl.sup with
              | Some s when m = 0 ->
                  pr "  k%dm0 %s = %s\n" c pat
                    (linear (Printf.sprintf "k%dm0 %s" s v) 1 bb)
              | _ -> pr "  k%dm%d %s = %s\n" c m pat (linear "x" a bb))
            coeffs)
        cl.insts)
    classes;
  Array.iteri
    (fun i f ->
      pr "\nf%d :: K%d a => a -> Int -> Int\n" i f.fcls;
      let term =
        String.concat " + "
          (List.map
             (fun (c, m, coef) -> Printf.sprintf "k%dm%d v * %d" c m coef)
             f.terms
          @ match f.call with
            | None -> []
            | Some j -> [ Printf.sprintf "f%d v 1" j ])
      in
      pr "f%d v k = if k <= 0 then k%dm%d v else %s + f%d v (k - 1)\n" i
        f.fcls f.base_m term i)
    fns;
  let calls =
    List.init (range st 1 4) (fun _ ->
        let fi = Random.State.int st nf in
        let tys = List.map fst classes.(fns.(fi).fcls).insts in
        let ty = List.nth tys (Random.State.int st (List.length tys)) in
        let x = range st 0 20 and k = range st 0 4 in
        let arg =
          match ty with
          | Int_ty -> Printf.sprintf "(%d :: Int)" x
          | Data j -> Printf.sprintf "(T%d %d)" j x
        in
        (Printf.sprintf "f%d %s %d" fi arg k, fn_value classes fns fi ty x k))
  in
  let uniq = (part * 1_000_000) + i in
  pr "\nmain = [%s]\n"
    (String.concat ", " (List.map fst calls @ [ string_of_int uniq ]));
  let value = render_ints (List.map snd calls @ [ uniq ]) in
  let strategy =
    weighted st [ (5, "dict"); (3, "dict-flat"); (2, "tags") ]
  in
  let opt =
    weighted st [ (4, "none"); (2, "simplify"); (2, "spec"); (2, "all") ]
  in
  let backend = if Random.State.bool st then "vm" else "tree" in
  make ~id:uniq ~op:"run" ~src:(Buffer.contents b) ~strategy ~opt ~backend
    ~expect:(Value value) ~tag:"cold" ()

(* ---- hot-exec: a small fixed set of exec-heavy programs ------------ *)

(* Five programs, each sent on both backends. Sizes are fixed per program
   and backend so that every request costs about the same to execute
   (roughly 12 ms alone on one core): the tree evaluator is slower, so its
   sizes are smaller. With equal costs the latency distribution has one
   mode and p99 rests on every request, not on the slowest program's
   tail. The seed varies data, never sizes. *)

let dispatch_src ~size ~calls ~x =
  ( Printf.sprintf
      "-- perfbench hot-exec: E2-style method dispatch loop\n\
       class Work a where\n\
      \  work :: a -> Int\n\n\
       instance Work Int where\n\
      \  work n = busy %d + n\n\n\
       busy :: Int -> Int\n\
       busy k = if k == 0 then 0 else 1 + busy (k - 1)\n\n\
       runAll :: Work a => Int -> a -> Int\n\
       runAll n x = if n == 0 then 0 else work x + runAll (n - 1) x\n\n\
       main = runAll %d (%d :: Int)\n"
      size calls x,
    string_of_int (calls * (size + x)) )

let numsum_src ~n ~reps =
  ( Printf.sprintf
      "-- perfbench hot-exec: Num-overloaded recursion\n\
       mySum :: Num a => a -> a\n\
       mySum n = if n == 0 then 0 else n + mySum (n - 1)\n\n\
       rep :: Int -> Int -> Int\n\
       rep r n = if r == 0 then 0 else mySum n + rep (r - 1) n\n\n\
       main = rep %d (%d :: Int)\n"
      reps n,
    string_of_int (reps * n * (n + 1) / 2) )

let queens_counts = [| 1; 0; 0; 2; 10; 4; 40; 92 |]

let queens_src ~ns =
  ( Printf.sprintf
      "-- perfbench hot-exec: N-queens (corpus program, scaled)\n\
       safe :: (Int, Int) -> (Int, Int) -> Bool\n\
       safe (r1, c1) (r2, c2) =\n\
      \  c1 /= c2 && r1 + c1 /= r2 + c2 && r1 - c1 /= r2 - c2\n\n\
       ok :: (Int, Int) -> [(Int, Int)] -> Bool\n\
       ok q placed = all (safe q) placed\n\n\
       queens :: Int -> [[(Int, Int)]]\n\
       queens n = place n where\n\
      \  place 0 = [[]]\n\
      \  place r = concatMap extend (place (r - 1)) where\n\
      \    extend placed =\n\
      \      map (\\c -> (r, c) : placed)\n\
      \          (filter (\\c -> ok (r, c) placed) (enumFromTo 1 n))\n\n\
       solutions :: Int -> Int\n\
       solutions n = length (queens n)\n\n\
       main = map solutions %s\n"
      (render_ints ns),
    render_ints (List.map (fun n -> queens_counts.(n - 1)) ns) )

let set_src ~xs =
  ( Printf.sprintf
      "-- perfbench hot-exec: Ord-keyed search trees (corpus program, scaled)\n\
       data Set a = Tip | Bin (Set a) a (Set a)\n\n\
       insert :: Ord a => a -> Set a -> Set a\n\
       insert x Tip = Bin Tip x Tip\n\
       insert x (Bin l v r) | x == v = Bin l v r\n\
      \                     | x < v  = Bin (insert x l) v r\n\
      \                     | otherwise = Bin l v (insert x r)\n\n\
       toList :: Set a -> [a]\n\
       toList Tip = []\n\
       toList (Bin l v r) = toList l ++ [v] ++ toList r\n\n\
       fromList :: Ord a => [a] -> Set a\n\
       fromList = foldr insert Tip\n\n\
       main = toList (fromList %s)\n"
      (render_ints xs),
    render_ints (List.sort_uniq compare xs) )

let pairs_lit pairs =
  "["
  ^ String.concat ", "
      (List.map (fun (a, b) -> Printf.sprintf "(%d, %d)" a b) pairs)
  ^ "]"

let isort_src ~pairs =
  ( Printf.sprintf
      "-- perfbench hot-exec: overloaded insertion sort on pairs\n\
       ins :: Ord a => a -> [a] -> [a]\n\
       ins x [] = [x]\n\
       ins x (y:ys) = if x <= y then x : y : ys else y : ins x ys\n\n\
       isort :: Ord a => [a] -> [a]\n\
       isort = foldr ins []\n\n\
       main = isort %s\n"
      (pairs_lit pairs),
    pairs_lit (List.sort compare pairs) )

let hot_set ~seed =
  let st = rng seed 7 0 in
  let x = range st 1 99 in
  let n = range st 175 179 in
  let xs = List.init 270 (fun _ -> range st 0 9999) in
  let pairs = List.init 100 (fun _ -> (range st 0 9, range st 0 99)) in
  let take k l = List.filteri (fun i _ -> i < k) l in
  List.concat_map
    (fun backend ->
      let size ~vm ~tree = if backend = "vm" then vm else tree in
      List.map
        (fun (name, (src, value), opt) -> (name, src, value, opt, backend))
        [
          ("dispatch", dispatch_src ~size:40 ~calls:(size ~vm:110 ~tree:80) ~x, "none");
          ("numsum", numsum_src ~n ~reps:(size ~vm:47 ~tree:35), "all");
          ("queens", queens_src ~ns:(size ~vm:[ 1; 2; 3; 4; 5; 5 ] ~tree:[ 1; 2; 3; 4; 5 ]), "none");
          ("set", set_src ~xs:(take (size ~vm:270 ~tree:170) xs), "simplify");
          ("isort", isort_src ~pairs:(take (size ~vm:100 ~tree:77) pairs), "all");
        ])
    [ "vm"; "tree" ]

(* Part 0 is the timed stream: rounds over the set, each round in a
   seeded order. Part 1 (warm-up) sends each member once, in set order. *)
let hot_stream ~seed ~part ~count =
  let set = Array.of_list (hot_set ~seed) in
  let n = Array.length set in
  let order round =
    let st = rng seed (100 + part) round in
    let a = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  List.init count (fun i ->
      let k = if part = 1 then i mod n else (order (i / n)).(i mod n) in
      let name, src, value, opt, backend = set.(k) in
      make ~id:((part * 1_000_000) + i) ~op:"run" ~src ~opt ~backend
        ~expect:(Value value) ~tag:name ())

(* ---- edit-check: seeded editing sessions over the corpus ----------- *)

(* Each corpus file with the number of errors the checker reports on it
   as written (the broken files document theirs). *)
let corpus =
  [
    ("calculator.mhs", 0); ("matrix.mhs", 0); ("nqueens.mhs", 0);
    ("parsec.mhs", 0); ("primes.mhs", 0); ("regex.mhs", 0); ("set.mhs", 0);
    ("stats.mhs", 0); ("broken/classes.mhs", 3); ("broken/mixed.mhs", 3);
    ("broken/parse_recovery.mhs", 3);
  ]

let sessions_per_file = 2

type doc = {
  base : string;
  base_errors : int;
  name : string;
  mutable edit : int;   (* the edit slot's current literal *)
  mutable err : bool;   (* whether the injected type error is present *)
}

(* A document's text: the corpus file, a well-typed edit slot the
   session rewrites, and (while present) one binding with exactly one
   type error. *)
let doc_src d =
  Printf.sprintf "%s\n\n-- editing session: %s\npbEdit :: Int\npbEdit = %d * 7 + 1\n%s"
    d.base d.name d.edit
    (if d.err then "\npbErr :: Int\npbErr = 'c'\n" else "")

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The warm-up (part 1) opens every document once; the timed stream
   (part 0) continues the same sessions. Both are prefixes of one event
   sequence, so the timed stream is generated by replaying the warm-up
   first. *)
let edit_stream ~corpus_dir ~seed ~part ~count =
  let docs =
    Array.of_list
      (List.concat_map
         (fun (file, base_errors) ->
           let base = read_file (Filename.concat corpus_dir file) in
           List.init sessions_per_file (fun s ->
               {
                 base;
                 base_errors;
                 name = Printf.sprintf "%s#%d" file s;
                 edit = s;
                 err = false;
               }))
         corpus)
  in
  let nd = Array.length docs in
  let recent = ref [] in
  let request ~id d tag =
    recent := d :: List.filter (fun x -> x != d) !recent;
    make ~id ~op:"check" ~src:(doc_src d)
      ~expect:(Errors (d.base_errors + if d.err then 1 else 0))
      ~tag ()
  in
  let opened = List.init nd (fun i -> request ~id:(1_000_000 + i) docs.(i) "open") in
  if part = 1 then List.filteri (fun i _ -> i < count) opened
  else
    List.init count (fun i ->
        let st = rng seed 200 i in
        let d =
          match !recent with
          | a :: b :: c :: _ when Random.State.int st 10 < 6 -> pick st [| a; b; c |]
          | _ -> docs.(Random.State.int st nd)
        in
        (* an introduced error is usually fixed within a few requests *)
        let action =
          if d.err then weighted st [ (20, `Resend); (20, `Edit); (60, `Toggle) ]
          else weighted st [ (25, `Resend); (55, `Edit); (20, `Toggle) ]
        in
        let tag =
          match action with
          | `Resend -> "repeat"
          | `Edit ->
              d.edit <- d.edit + nd;
              "edit"
          | `Toggle ->
              d.err <- not d.err;
              if d.err then "error-add" else "error-remove"
        in
        request ~id:i d tag)

(* ---- entry point ---------------------------------------------------- *)

(* [part] 1 is the warm-up stream (disjoint from the timed one for
   cold-compile), [part] 0 the timed stream. *)
let stream ~corpus_dir ~workload ~seed ~part ~count =
  match workload with
  | "cold-compile" -> List.init count (fun i -> cold_program ~seed ~part i)
  | "hot-exec" -> hot_stream ~seed ~part ~count
  | "edit-check" -> edit_stream ~corpus_dir ~seed ~part ~count
  | w -> invalid_arg ("unknown workload " ^ w)

(* Warm-up length per workload: enough serial requests to fill what
   the timed phase relies on (cold-compile's cache budget, the hot set,
   the open documents). *)
let warmup_count = function
  | "cold-compile" -> 30
  | "hot-exec" -> List.length (hot_set ~seed:0)
  | _ -> List.length corpus * sessions_per_file

let expect_json = function
  | Value v -> Json.Obj [ ("value", Json.Str v) ]
  | Errors n -> Json.Obj [ ("errors", Json.Int n) ]

(* The line the harness reads: the request to send plus its reference. *)
let to_record r =
  Json.to_line
    (Json.Obj
       [ ("tag", Json.Str r.tag); ("expect", expect_json r.expect); ("line", Json.Str r.line) ])
