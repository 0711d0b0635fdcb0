(** Static-analyzer tier: one seeded violation fixture + clean twin per
    mlint rule, the pre-fix NVTraverse failed-remove hole as the L3
    parity fixture (static twin of the mcheck regression), pragma
    suppression, and vocabulary sync pinning the rule list against the
    [--list-rules] CLI output and the docs table. *)

module S = Mirror_slint.Slint

(* rel decides the directory-scoped rules; lib/dstruct is the strictest
   place (not a substrate owner, replay-deterministic) *)
let analyze ?(rel = "lib/dstruct/fixture.ml") src = S.analyze ~rel src

let lines_of rule fs =
  List.filter_map
    (fun f ->
      if f.S.f_rule = rule && f.S.f_suppressed = None then Some f.S.f_line
      else None)
    fs

let check_lines name rule expected fs =
  Alcotest.(check (list int)) name expected (lines_of rule fs)

(* -- L1: substrate encapsulation ------------------------------------------- *)

let l1_src =
  {|
let poke s = Mirror_nvm.Slot.store s 1
let sync r = Mirror_nvm.Region.fence r
let ok r = Mirror_nvm.Region.crash r
|}

let test_l1 () =
  (* Slot access and data-plane Region access fire; the lifecycle call
     (crash) stays legal even here *)
  check_lines "violations at exact lines" S.L1 [ 2; 3 ] (analyze l1_src);
  (* the same source inside a substrate owner is the clean twin *)
  check_lines "clean inside lib/nvm" S.L1 []
    (analyze ~rel:"lib/nvm/fixture.ml" l1_src)

(* the billing point: outside lib/nvm an access counter moves only
   through a Stats.bill_* function, even in a substrate owner *)
let l1_billing_src =
  {|
let read s = s.Mirror_nvm.Stats.nvm_read <- s.Mirror_nvm.Stats.nvm_read + 1
let fence s = s.Stats.fence <- s.Stats.fence + 1
let spin () = Mirror_nvm.Latency.nvm_write ()
let billed () = Mirror_nvm.Stats.bill_nvm_read ~home:Mirror_nvm.Stats.local
let other s = s.Stats.help <- s.Stats.help + 1
|}

let test_l1_billing () =
  check_lines "hand billing flagged" S.L1 [ 2; 3; 4 ]
    (analyze ~rel:"lib/core/fixture.ml" l1_billing_src);
  check_lines "lib/nvm bills by hand" S.L1 []
    (analyze ~rel:"lib/nvm/fixture.ml" l1_billing_src)

(* -- L2: phase discipline --------------------------------------------------- *)

let l2_bad =
  {|
module Make (P : Mirror_prim.Prim.S) = struct
  let bump t =
    P.store t 1;
    P.load_t t
end
|}

let l2_ok =
  {|
module Make (P : Mirror_prim.Prim.S) = struct
  let bump t =
    let v = P.load_t t in
    P.store t (v + 1)
end
|}

let test_l2 () =
  check_lines "traversal load after the write" S.L2 [ 5 ] (analyze l2_bad);
  check_lines "traversal load before the write is fine" S.L2 []
    (analyze l2_ok)

(* -- L3: the NVTraverse failed-remove hole ---------------------------------- *)

(* The exact pre-fix shape mcheck caught dynamically: [remove] reaches its
   negative verdict through [find_from]'s traversal loads and returns
   [false] without persisting the link that proved the key absent — a
   crash can undo another thread's unlink and with it the justification. *)
let l3_bad =
  {|
module Make (P : Mirror_prim.Prim.S) = struct
  type 'v node = { key : int; next : 'v node option P.t }

  let rec find_from pred k =
    match P.load_t pred.next with
    | Some c when c.key < k -> find_from c k
    | res -> (pred, res)

  let remove head k =
    let pred, curr = find_from head k in
    match curr with
    | Some c when c.key = k ->
        P.persist pred.next;
        P.cas pred.next ~expected:curr ~desired:None
    | _ -> false
end
|}

(* the committed fix: persist the deciding link before answering *)
let l3_ok =
  {|
module Make (P : Mirror_prim.Prim.S) = struct
  type 'v node = { key : int; next : 'v node option P.t }

  let rec find_from pred k =
    match P.load_t pred.next with
    | Some c when c.key < k -> find_from c k
    | res -> (pred, res)

  let remove head k =
    let pred, curr = find_from head k in
    match curr with
    | Some c when c.key = k ->
        P.persist pred.next;
        P.cas pred.next ~expected:curr ~desired:None
    | _ ->
        ignore (P.load pred.next);
        false
end
|}

let test_l3 () =
  check_lines "pre-fix failed-remove flagged" S.L3 [ 16 ] (analyze l3_bad);
  check_lines "persisting the deciding link clears it" S.L3 []
    (analyze l3_ok);
  (* the finding names the file it was found in *)
  match List.filter (fun f -> f.S.f_rule = S.L3) (analyze l3_bad) with
  | [ f ] ->
      Alcotest.(check string)
        "file recorded" "lib/dstruct/fixture.ml" f.S.f_file
  | fs -> Alcotest.failf "expected exactly one L3 finding, got %d"
            (List.length fs)

(* -- L4: ignored CAS results ------------------------------------------------ *)

let l4_bad =
  {|
module Make (P : Mirror_prim.Prim.S) = struct
  let swing t n =
    ignore (P.cas t ~expected:0 ~desired:n);
    let _ = P.cas t ~expected:n ~desired:0 in
    ()
end
|}

let l4_ok =
  {|
module Make (P : Mirror_prim.Prim.S) = struct
  let rec swing t n = if P.cas t ~expected:0 ~desired:n then () else swing t n
end
|}

let test_l4 () =
  check_lines "both discard shapes" S.L4 [ 4; 5 ] (analyze l4_bad);
  check_lines "handled CAS is fine" S.L4 [] (analyze l4_ok)

(* -- L5: replay determinism ------------------------------------------------- *)

let l5_src =
  {|
let seed () = Random.self_init ()
let now () = Unix.gettimeofday ()
|}

let test_l5 () =
  check_lines "nondeterminism in lib/dstruct" S.L5 [ 2; 3 ] (analyze l5_src);
  (* the twin: the same calls are legal outside the deterministic dirs *)
  check_lines "legal in bin/" S.L5 [] (analyze ~rel:"bin/fixture.ml" l5_src)

(* the library's monotonic clock is a clock read like any other *)
let l5_clock_src =
  {|
let now () = Mirror_clock.now_ns ()
let since t0 = Mirror_clock.seconds_since t0
|}

let test_l5_clock () =
  check_lines "clock reads in lib/prim" S.L5 [ 2; 3 ]
    (analyze ~rel:"lib/prim/fixture.ml" l5_clock_src);
  check_lines "legal in lib/harness" S.L5 []
    (analyze ~rel:"lib/harness/fixture.ml" l5_clock_src)

(* -- L6: recovery honesty --------------------------------------------------- *)

let l6_bad =
  {|
let recover_image r f =
  try f r with _ -> ()

let load_heap r f =
  try f r with Mirror_nvmheap.Heap.Recovery_corrupt _ -> 0
|}

let l6_ok =
  {|
let recover_image r f =
  try f r with Not_found -> ()

let load_heap r f =
  try f r
  with Mirror_nvmheap.Heap.Recovery_corrupt _ as e -> raise e
|}

let test_l6 () =
  check_lines "catch-all in recovery + swallowed corrupt" S.L6 [ 3; 6 ]
    (analyze l6_bad);
  check_lines "named exception / re-raise are fine" S.L6 [] (analyze l6_ok)

(* -- W2: line placement ----------------------------------------------------- *)

let w2_bad =
  {|
module Make (P : Mirror_prim.Prim.S) = struct
  type 'v t = { a : 'v P.t; b : 'v P.t }

  let create v = { a = P.make v; b = P.make v }
end
|}

let w2_ok =
  {|
module Make (P : Mirror_prim.Prim.S) = struct
  type 'v t = { a : 'v P.t; b : 'v P.t }

  let create v =
    let a = P.make v in
    { a; b = P.make_near a v }
end
|}

let test_w2 () =
  check_lines "independent sibling makes" S.W2 [ 5 ] (analyze w2_bad);
  check_lines "make_near co-location is the fix" S.W2 [] (analyze w2_ok);
  Alcotest.(check bool)
    "W2 is warning tier" true
    (S.tier S.W2 = S.Warning)

(* -- L7: unchecked casts ----------------------------------------------------- *)

let l7_bad =
  {|
type 'a t = { mutable cur : 'a; id : int }

external cur_atomic : 'a t -> 'a Atomic.t = "%identity"

let coerce x = Obj.magic x
|}

let l7_ok =
  {|
type 'a t = { mutable cur : 'a; id : int }

external cur_atomic : 'a t -> 'a Atomic.t = "%identity"
[@@mlint.allow L7 "cur is field 0 of a mutable record"]

let coerce x = (Obj.magic x [@mlint.allow L7 "test-only coercion"])
external length : string -> int = "%string_length"
|}

let test_l7 () =
  check_lines "identity external and Obj.magic" S.L7 [ 4; 6 ] (analyze l7_bad);
  check_lines "pragmas cover both; other externals are fine" S.L7 []
    (analyze l7_ok);
  check_lines "clean outside lib/, bin/, examples/" S.L7 []
    (analyze ~rel:"test/fixture.ml" l7_bad)

(* -- pragma suppression ------------------------------------------------------ *)

let test_pragma_scoped () =
  let src =
    {|
module Make (P : Mirror_prim.Prim.S) = struct
  let absent t =
    ignore (P.load_t t);
    (false [@mlint.allow L3 "caller persists the link"])
end
|}
  in
  match List.filter (fun f -> f.S.f_rule = S.L3) (analyze src) with
  | [ f ] ->
      Alcotest.(check (option string))
        "suppressed with its reason"
        (Some "caller persists the link")
        f.S.f_suppressed;
      Alcotest.(check int) "not active" 0 (List.length (S.active [ f ]))
  | fs ->
      Alcotest.failf "expected one (suppressed) L3 finding, got %d"
        (List.length fs)

let test_pragma_file_level () =
  let src =
    {|[@@@mlint.allow substrate "hand-made baseline"]

let poke s = Mirror_nvm.Slot.store s 1
|}
  in
  match analyze ~rel:"lib/handmade/fixture.ml" src with
  | [ f ] ->
      Alcotest.(check bool) "still an L1 finding" true (f.S.f_rule = S.L1);
      Alcotest.(check (option string))
        "file pragma covers it"
        (Some "hand-made baseline") f.S.f_suppressed
  | fs ->
      Alcotest.failf "expected one (suppressed) L1 finding, got %d"
        (List.length fs)

let test_pragma_typo_inert () =
  (* a typo'd rule name suppresses nothing: the finding stays active *)
  let src =
    {|
module Make (P : Mirror_prim.Prim.S) = struct
  let absent t =
    ignore (P.load_t t);
    (false [@mlint.allow L99 "typo"])
end
|}
  in
  check_lines "typo'd pragma is inert" S.L3 [ 5 ] (analyze src)

(* -- vocabulary sync ---------------------------------------------------------- *)

let read_all path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* [dune runtest] runs us from test/, [dune exec test/main.exe] from the
   workspace root: resolve sibling build products against the test binary
   itself (both are declared deps of the test stanza) *)
let sibling rel = Filename.concat (Filename.dirname Sys.executable_name) rel

let test_vocab_cli () =
  (* bin/mlint.exe --list-rules must print exactly the library's lines *)
  let cmd = Filename.quote (sibling "../bin/mlint.exe") ^ " --list-rules" in
  let ic = Unix.open_process_in cmd in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let out = go [] in
  ignore (Unix.close_process_in ic);
  Alcotest.(check (list string))
    "CLI output = Slint.list_rules" (S.list_rules ()) out

let test_vocab_docs () =
  (* every rule id has a row in the docs/TESTING.md table; under [dune
     runtest] the declared dep sits next to the binary, under [dune exec]
     only the source copy exists *)
  let candidates =
    [ sibling "../docs/TESTING.md"; "docs/TESTING.md"; "../docs/TESTING.md" ]
  in
  let path =
    match List.find_opt Sys.file_exists candidates with
    | Some p -> p
    | None -> Alcotest.fail "docs/TESTING.md not found"
  in
  let doc = read_all path in
  List.iter
    (fun r ->
      let id = S.rule_id r in
      Alcotest.(check bool)
        (Printf.sprintf "docs table has a | %s | row" id)
        true
        (Support.contains doc (Printf.sprintf "| %s |" id)))
    S.all_rules

let test_vocab_ids () =
  let ids = List.map S.rule_id S.all_rules in
  Alcotest.(check int)
    "ids unique"
    (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "rule_of_id roundtrips %s" (S.rule_id r))
        true
        (S.rule_of_id (S.rule_id r) = Some r))
    S.all_rules;
  Alcotest.(check bool)
    "substrate aliases L1" true
    (S.rule_of_id "substrate" = Some S.L1)

let suite =
  [
    ( "slint",
      [
        Alcotest.test_case "L1 substrate fixture + twin" `Quick test_l1;
        Alcotest.test_case "L1 billing point fixture + twin" `Quick
          test_l1_billing;
        Alcotest.test_case "L2 phase fixture + twin" `Quick test_l2;
        Alcotest.test_case "L3 NVTraverse failed-remove parity" `Quick
          test_l3;
        Alcotest.test_case "L4 ignored-CAS fixture + twin" `Quick test_l4;
        Alcotest.test_case "L5 determinism fixture + twin" `Quick test_l5;
        Alcotest.test_case "L6 recovery fixture + twin" `Quick test_l6;
        Alcotest.test_case "W2 placement fixture + twin" `Quick test_w2;
        Alcotest.test_case "L7 cast fixture + twin" `Quick test_l7;
        Alcotest.test_case "pragma: scoped suppression" `Quick
          test_pragma_scoped;
        Alcotest.test_case "pragma: file-level substrate" `Quick
          test_pragma_file_level;
        Alcotest.test_case "pragma: typo is inert" `Quick
          test_pragma_typo_inert;
        Alcotest.test_case "vocab: CLI --list-rules" `Quick test_vocab_cli;
        Alcotest.test_case "vocab: docs table" `Quick test_vocab_docs;
        Alcotest.test_case "vocab: ids + aliases" `Quick test_vocab_ids;
        Alcotest.test_case "L5 bans the monotonic clock" `Quick test_l5_clock;
      ] );
  ]
