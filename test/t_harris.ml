(** Harris-list races pinned under the deterministic scheduler: a
    predecessor field that returns to the same successor (S → X → S) under
    a stalled insert, a stalled insert whose predecessor is marked, and a
    remove cut between its mark and its unlink.  Each runs on the volatile
    list and on both Mirror disciplines. *)

let check = Support.check

module Sched = Mirror_schedsim.Sched

(* A primitive that parks the calling fiber just before one of its coming
   CASes: [arm n f] runs [f] before the [n]-th CAS from now (1 = the next)
   and records that CAS's verdict.  [cas_count] counts every CAS. *)
module Stall (P : Mirror_prim.Prim.S) = struct
  include P

  let countdown = ref 0
  let on_stall = ref None
  let verdict = ref None
  let cas_count = ref 0

  let arm n f =
    countdown := n;
    on_stall := Some f;
    verdict := None

  let cas t ~expected ~desired =
    incr cas_count;
    match !on_stall with
    | Some f when !countdown = 1 ->
        on_stall := None;
        f ();
        let ok = P.cas t ~expected ~desired in
        verdict := Some ok;
        ok
    | Some _ ->
        decr countdown;
        P.cas t ~expected ~desired
    | None -> P.cas t ~expected ~desired
end

let rec wait_for flag =
  if not !flag then begin
    Mirror_nvm.Hooks.yield ();
    wait_for flag
  end

let prims = [ "orig-dram"; "mirror"; "buffered" ]

(* Thread A inserts 3 into [1; 5] and stalls at its first CAS, the one on
   node 1's [next] expecting node 5, until thread B has run [b] to the
   end.  Returns whether both completed, the stalled CAS's verdict, both
   results and the final contents. *)
let stalled_insert prim_name seed b =
  let region = Support.fresh_region () in
  let module B = (val Support.prim region prim_name) in
  let module P = Stall (B) in
  let module L = Mirror_dstruct.Linked_list.Make (P) in
  let t = L.create () in
  ignore (L.insert t 1 1);
  ignore (L.insert t 5 5);
  let stalled = ref false and b_done = ref false in
  let a_ok = ref false and b_ok = ref false in
  let o =
    Sched.run ~seed
      [
        (fun () ->
          P.arm 1 (fun () ->
              stalled := true;
              wait_for b_done);
          a_ok := L.insert t 3 3);
        (fun () ->
          wait_for stalled;
          b_ok := b ~insert:(fun k -> L.insert t k k) ~remove:(L.remove t);
          b_done := true);
      ]
  in
  (o.Sched.completed, !P.verdict, !a_ok, !b_ok, L.to_list t)

(* B inserts 4 behind node 1 and removes it again, so node 1's [next] goes
   5 → 4 → 5.  The stale CAS lands: the field holds the same node 5, still
   linked, so A's insert is linearizable after B's pair. *)
let aba_return prim_name () =
  List.iter
    (fun seed ->
      let completed, verdict, a_ok, b_ok, contents =
        stalled_insert prim_name seed (fun ~insert ~remove ->
            insert 4 && remove 4)
      in
      check completed "both threads complete";
      check (verdict = Some true) "the stale CAS lands on 5 → 4 → 5";
      check (a_ok && b_ok) "every operation succeeds";
      check
        (contents = [ (1, 1); (3, 3); (5, 5) ])
        "contents: B's insert and remove, then A's insert")
    [ 1; 2; 3; 4 ]

(* B removes 1, marking node 1's [next].  The stale CAS fails — the field
   now holds a fresh [Marked] block — and A retries from the head. *)
let aba_marked_pred prim_name () =
  List.iter
    (fun seed ->
      let completed, verdict, a_ok, b_ok, contents =
        stalled_insert prim_name seed (fun ~insert:_ ~remove -> remove 1)
      in
      check completed "both threads complete";
      check (verdict = Some false) "the stale CAS fails on the mark";
      check (a_ok && b_ok) "both operations succeed";
      check
        (contents = [ (3, 3); (5, 5) ])
        "contents: B's remove, then A's insert")
    [ 1; 2; 3; 4 ]

(* A remove of 3 from [1; 3; 5; 7] is cut after its mark CAS and before its
   unlink, leaving node 3 linked and marked.  Every walk steps past it:
   the inspections skip it, recovery restores the nodes behind it, a
   lookup answers "absent" without unlinking, and the next [find] through
   it unlinks it. *)
let marked_arms prim_name () =
  let region = Support.fresh_region () in
  let module B = (val Support.prim region prim_name) in
  let module P = Stall (B) in
  let module L = Mirror_dstruct.Linked_list.Make (P) in
  let t = L.create () in
  List.iter (fun k -> ignore (L.insert t k k)) [ 1; 3; 5; 7 ];
  let stalled = ref false and never = ref false in
  let o =
    Sched.run_with_picker
      ~pick:(fun _ -> 0)
      ~stop:(fun () -> !stalled)
      [
        (fun () ->
          P.arm 2 (fun () ->
              stalled := true;
              wait_for never);
          ignore (L.remove t 3));
      ]
  in
  check (not o.Sched.completed) "the remove is cut before its unlink";
  let live = [ (1, 1); (5, 5); (7, 7) ] in
  check (L.to_list t = live) "to_list skips the marked node";
  check
    (List.rev (L.fold (fun acc k v -> (k, v) :: acc) [] t) = live)
    "fold skips the marked node";
  check (L.range t ~lo:0 ~hi:100 = live) "range skips the marked node";
  check (L.range t ~lo:2 ~hi:6 = [ (5, 5) ]) "a range starting at it";
  check (L.range t ~lo:3 ~hi:4 = []) "a range holding only it";
  (* a buffered region commits the mark before the crash *)
  Mirror_nvm.Region.quiesce region;
  Mirror_nvm.Region.crash region;
  L.recover t;
  Mirror_nvm.Region.mark_recovered region;
  check (L.to_list t = live) "recovery restores the nodes behind the mark";
  let c0 = !P.cas_count in
  check (not (L.contains t 3)) "a lookup answers absent";
  check (!P.cas_count = c0) "a lookup does not unlink";
  check (L.insert t 4 4) "insert behind the marked node";
  check (!P.cas_count = c0 + 2) "find unlinks the marked node, then inserts";
  check (L.insert t 6 6) "a second insert";
  check (!P.cas_count = c0 + 3) "nothing is left to unlink";
  check
    (L.to_list t = [ (1, 1); (4, 4); (5, 5); (6, 6); (7, 7) ])
    "final contents"

let suite =
  [
    ( "harris",
      List.concat_map
        (fun p ->
          [
            Alcotest.test_case ("aba return lands " ^ p) `Quick (aba_return p);
            Alcotest.test_case ("aba marked pred fails " ^ p) `Quick
              (aba_marked_pred p);
            Alcotest.test_case ("marked node skipped " ^ p) `Quick
              (marked_arms p);
          ])
        prims );
  ]
