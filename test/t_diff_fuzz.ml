(** Property-based differential fuzzing: every durable structure (the four
    sets plus the queue and the stack) is run against a trivial sequential
    model under seeded random op streams, with full-system crash + recovery
    interleaved among the ops for the durable strategies.  A divergence —
    wrong return value, wrong contents after recovery, or an exception —
    is shrunk to a minimal failing op sequence before being reported, so a
    red run prints something a human can replay by hand.

    The two non-durable baselines ([orig-dram], [orig-nvmm]) are fuzzed
    without crashes (pure sequential semantics); a negative control checks
    that [orig-nvmm] {e with} a crash is caught and shrunk. *)

module Rng = Mirror_workload.Rng
module Region = Mirror_nvm.Region
module Hooks = Mirror_nvm.Hooks
module Sets = Mirror_dstruct.Sets
module Prim = Mirror_prim.Prim

let check = Support.check

(* -- op streams ---------------------------------------------------------------- *)

(** One generic alphabet for all three families.  Sets read [Add (k, v)] as
    insert, queues as enqueue [k], stacks as push [k]; [Del] is
    remove/dequeue/pop and [Query] is contains/is_empty/peek. *)
type op = Add of int * int | Del of int | Query of int | Crash

let op_to_string = function
  | Add (k, v) -> Printf.sprintf "Add(%d,%d)" k v
  | Del k -> Printf.sprintf "Del(%d)" k
  | Query k -> Printf.sprintf "Query(%d)" k
  | Crash -> "Crash"

let ops_to_string ops = String.concat "; " (List.map op_to_string ops)

let gen_ops ~crashes ~rng ~n ~range =
  List.init n (fun i ->
      match Rng.int rng (if crashes then 10 else 9) with
      | 0 | 1 | 2 | 3 -> Add (Rng.int rng range, i + 1)
      | 4 | 5 -> Del (Rng.int rng range)
      | 6 | 7 | 8 -> Query (Rng.int rng range)
      | _ -> Crash)

(** Crash the region and run the structure's recovery in one recovery
    session, exactly as the harness does: epoch flip, in-recovery flag (so
    psan stays quiet and kill points fire), epoch close. *)
let crash_recover region recover =
  Region.crash ~policy:Adversarial region;
  Region.recovery_session region recover

(* -- runners: fresh structure + model, first divergence wins -------------------- *)

(** A runner executes one op stream from scratch and returns [Some msg] at
    the first divergence from the model ([None] if the run is clean).
    Exceptions count as divergences: a crash-lossy baseline typically dies
    with an access-to-unrecovered-variable error rather than returning
    wrong data. *)
type runner = op list -> string option

let rec first_divergence i step = function
  | [] -> None
  | op :: rest -> (
      match step i op with
      | Some msg -> Some msg
      | None -> first_divergence (i + 1) step rest)

let diverged i op got expected =
  Some
    (Printf.sprintf "op %d %s: structure %s, model %s" i (op_to_string op) got
       expected)

let run_set ~ds ~prim : runner =
 fun ops ->
  let region = Region.create ~seed:11 () in
  let pack = Sets.make ds (Prim.by_name region prim) in
  let module S = (val pack) in
  let t = S.create ~capacity:64 () in
  let model : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let model_sorted () =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [] |> List.sort compare
  in
  let contents_check i op =
    let got = List.sort compare (S.to_list t) in
    let expected = model_sorted () in
    if got <> expected then
      diverged i op
        (ops_to_string (List.map (fun (k, v) -> Add (k, v)) got))
        (ops_to_string (List.map (fun (k, v) -> Add (k, v)) expected))
    else None
  in
  let step i op =
    match op with
    | Add (k, v) ->
        let expected = not (Hashtbl.mem model k) in
        let got = S.insert t k v in
        if expected then Hashtbl.replace model k v;
        if got <> expected then
          diverged i op (string_of_bool got) (string_of_bool expected)
        else None
    | Del k ->
        let expected = Hashtbl.mem model k in
        let got = S.remove t k in
        Hashtbl.remove model k;
        if got <> expected then
          diverged i op (string_of_bool got) (string_of_bool expected)
        else None
    | Query k ->
        let expected = Hashtbl.mem model k in
        let got = S.contains t k in
        if got <> expected then
          diverged i op (string_of_bool got) (string_of_bool expected)
        else None
    | Crash ->
        crash_recover region (fun () -> S.recover t);
        contents_check i op
  in
  try
    match first_divergence 0 step ops with
    | Some msg -> Some msg
    | None -> contents_check (List.length ops) (Query (-1))
  with e -> Some ("exception: " ^ Printexc.to_string e)

let run_queue ~prim : runner =
 fun ops ->
  let region = Region.create ~seed:11 () in
  let module P = (val Prim.by_name region prim) in
  let module Q = Mirror_dstruct.Queue.Make (P) in
  let q = Q.create () in
  (* model: front-first list; streams are short, so appending is fine *)
  let model = ref [] in
  let contents_check i op =
    let got = Q.to_list q in
    if got <> !model then
      diverged i op
        (String.concat "," (List.map string_of_int got))
        (String.concat "," (List.map string_of_int !model))
    else None
  in
  let step i op =
    match op with
    | Add (k, _) ->
        Q.enqueue q k;
        model := !model @ [ k ];
        None
    | Del _ -> (
        let expected = match !model with [] -> None | x :: _ -> Some x in
        let got = Q.dequeue q in
        (match !model with [] -> () | _ :: rest -> model := rest);
        match got = expected with
        | true -> None
        | false ->
            diverged i op
              (match got with None -> "None" | Some x -> string_of_int x)
              (match expected with
              | None -> "None"
              | Some x -> string_of_int x))
    | Query _ ->
        let expected = !model = [] in
        let got = Q.is_empty q in
        if got <> expected then
          diverged i op (string_of_bool got) (string_of_bool expected)
        else None
    | Crash ->
        crash_recover region (fun () -> Q.recover q);
        contents_check i op
  in
  try
    match first_divergence 0 step ops with
    | Some msg -> Some msg
    | None -> contents_check (List.length ops) (Query (-1))
  with e -> Some ("exception: " ^ Printexc.to_string e)

let run_stack ~prim : runner =
 fun ops ->
  let region = Region.create ~seed:11 () in
  let module P = (val Prim.by_name region prim) in
  let module S = Mirror_dstruct.Stack.Make (P) in
  let s = S.create () in
  (* model: top-first list *)
  let model = ref [] in
  let opt_str = function None -> "None" | Some x -> string_of_int x in
  let contents_check i op =
    let got = S.to_list s in
    if got <> !model then
      diverged i op
        (String.concat "," (List.map string_of_int got))
        (String.concat "," (List.map string_of_int !model))
    else None
  in
  let step i op =
    match op with
    | Add (k, _) ->
        S.push s k;
        model := k :: !model;
        None
    | Del _ ->
        let expected = match !model with [] -> None | x :: _ -> Some x in
        let got = S.pop s in
        (match !model with [] -> () | _ :: rest -> model := rest);
        if got <> expected then diverged i op (opt_str got) (opt_str expected)
        else None
    | Query _ ->
        let expected = match !model with [] -> None | x :: _ -> Some x in
        let got = S.peek s in
        if got <> expected then diverged i op (opt_str got) (opt_str expected)
        else None
    | Crash ->
        crash_recover region (fun () -> S.recover s);
        contents_check i op
  in
  try
    match first_divergence 0 step ops with
    | Some msg -> Some msg
    | None -> contents_check (List.length ops) (Query (-1))
  with e -> Some ("exception: " ^ Printexc.to_string e)

(* -- shrinking ------------------------------------------------------------------ *)

(** Greedy delta debugging: repeatedly try deleting a contiguous chunk
    while the stream still fails, halving the chunk size when no deletion
    at the current size survives.  Deterministic runners make the
    predicate stable, so the result is a locally minimal failing stream
    (removing any single remaining op makes it pass). *)
let shrink (fails : op list -> bool) ops =
  let drop i n l = List.filteri (fun j _ -> j < i || j >= i + n) l in
  let rec scan ops chunk i =
    if i >= List.length ops then None
    else
      let candidate = drop i chunk ops in
      if fails candidate then Some candidate else scan ops chunk (i + chunk)
  in
  let rec go ops chunk =
    if chunk < 1 then ops
    else
      match scan ops chunk 0 with
      | Some smaller -> go smaller (min chunk (List.length smaller))
      | None -> go ops (chunk / 2)
  in
  if fails ops then go ops (max 1 (List.length ops / 2)) else ops

(* -- the fuzz driver ------------------------------------------------------------ *)

let fuzz ~name ~crashes (run : runner) ~seeds ~n ~range =
  for seed = 1 to seeds do
    let rng = Rng.create ((seed * 7919) + 17) in
    let ops = gen_ops ~crashes ~rng ~n ~range in
    match run ops with
    | None -> ()
    | Some msg ->
        let small = shrink (fun ops -> run ops <> None) ops in
        let small_msg = Option.value (run small) ~default:msg in
        Alcotest.failf "%s seed %d diverged: %s\n  shrunk to %d ops [%s]: %s"
          name seed msg (List.length small) (ops_to_string small) small_msg
  done

let durable_prim p = p <> "orig-dram" && p <> "orig-nvmm"

let test_sets_all_prims () =
  List.iter
    (fun ds ->
      List.iter
        (fun prim ->
          fuzz
            ~name:(Printf.sprintf "%s/%s" (Sets.ds_name ds) prim)
            ~crashes:(durable_prim prim) (run_set ~ds ~prim) ~seeds:3 ~n:48
            ~range:16)
        Prim.all_names)
    Sets.all_ds

let test_queue_all_prims () =
  List.iter
    (fun prim ->
      fuzz
        ~name:("queue/" ^ prim)
        ~crashes:(durable_prim prim) (run_queue ~prim) ~seeds:3 ~n:48 ~range:16)
    Prim.all_names

let test_stack_all_prims () =
  List.iter
    (fun prim ->
      fuzz
        ~name:("stack/" ^ prim)
        ~crashes:(durable_prim prim) (run_stack ~prim) ~seeds:3 ~n:48 ~range:16)
    Prim.all_names

(* -- negative control: the fuzzer must catch a crash-lossy baseline ------------- *)

let test_negative_control () =
  (* orig-nvmm never flushes: insert-then-crash must diverge (or die on an
     unrecovered access), and shrinking must keep a failing stream *)
  let run = run_set ~ds:Sets.List_ds ~prim:"orig-nvmm" in
  let ops = [ Add (1, 1); Query (1); Add (2, 2); Crash; Query (1) ] in
  (match run ops with
  | None -> check false "orig-nvmm with a crash must diverge"
  | Some _ -> ());
  let small = shrink (fun ops -> run ops <> None) ops in
  check (run small <> None) "shrunk stream still diverges";
  check
    (List.length small <= List.length ops)
    "shrinking never grows the stream";
  check (List.mem Crash small) "the crash op survives shrinking"

(* -- shrinker unit test on a synthetic predicate -------------------------------- *)

let test_shrinker_minimal () =
  (* failure needs both sentinel ops; everything else must be shaved off *)
  let fails ops = List.mem (Del 3) ops && List.mem (Add (7, 7)) ops in
  let rng = Rng.create 5 in
  let noise = gen_ops ~crashes:false ~rng ~n:20 ~range:6 in
  let ops = noise @ [ Add (7, 7) ] @ noise @ [ Del 3 ] @ noise in
  let small = shrink fails ops in
  check (fails small) "shrunk stream still fails";
  check
    (List.sort compare small = [ Add (7, 7); Del 3 ])
    "shrunk to exactly the two sentinel ops";
  (* a passing stream comes back untouched *)
  check (shrink fails noise == noise) "passing stream is returned as-is"

let suite =
  [
    ( "diff-fuzz",
      [
        Alcotest.test_case "sets vs model, all prims" `Quick
          test_sets_all_prims;
        Alcotest.test_case "queue vs model, all prims" `Quick
          test_queue_all_prims;
        Alcotest.test_case "stack vs model, all prims" `Quick
          test_stack_all_prims;
        Alcotest.test_case "negative control: orig-nvmm + crash" `Quick
          test_negative_control;
        Alcotest.test_case "shrinker reaches a minimal stream" `Quick
          test_shrinker_minimal;
      ] );
  ]
