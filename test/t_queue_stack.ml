(** Tests for the non-set structures (Michael–Scott queue, Treiber stack):
    the paper's generality claim.  Concurrent runs are validated with the
    *full-history* linearizability checker (queue/stack states do not
    decompose per key), including mid-operation crash torture. *)

module L = Mirror_harness.Linearize
module Sched = Mirror_schedsim.Sched

let check = Support.check

(* -- sequential specs usable by the generic checker ------------------------- *)

(* state encodings are injective for small values/depths, as the memoization
   contract requires *)
module Queue_spec = struct
  type state = int list (* front first *)
  type op = Enq of int | Deq
  type res = RU | RO of int option

  let apply st = function
    | Enq v -> (st @ [ v ], RU)
    | Deq -> ( match st with [] -> ([], RO None) | x :: r -> (r, RO (Some x)))

  let res_equal = ( = )
  let state_id st = List.fold_left (fun acc v -> (acc * 64) + v + 1) 0 st
end

module Stack_spec = struct
  type state = int list (* top first *)
  type op = Push of int | Pop
  type res = RU | RO of int option

  let apply st = function
    | Push v -> (v :: st, RU)
    | Pop -> ( match st with [] -> ([], RO None) | x :: r -> (r, RO (Some x)))

  let res_equal = ( = )
  let state_id st = List.fold_left (fun acc v -> (acc * 64) + v + 1) 0 st
end

(* -- sequential batteries ----------------------------------------------------- *)

let queue_semantics prim_name () =
  let region = Support.fresh_region () in
  let module P = (val Support.prim region prim_name) in
  let module Q = Mirror_dstruct.Queue.Make (P) in
  let q = Q.create () in
  check (Q.is_empty q) "empty";
  check (Q.dequeue q = None) "dequeue empty";
  Q.enqueue q 1;
  Q.enqueue q 2;
  Q.enqueue q 3;
  check (not (Q.is_empty q)) "non-empty";
  check (Q.to_list q = [ 1; 2; 3 ]) "contents in order";
  check (Q.dequeue q = Some 1) "fifo 1";
  check (Q.dequeue q = Some 2) "fifo 2";
  Q.enqueue q 4;
  check (Q.dequeue q = Some 3) "fifo 3";
  check (Q.dequeue q = Some 4) "fifo 4";
  check (Q.dequeue q = None) "drained"

let stack_semantics prim_name () =
  let region = Support.fresh_region () in
  let module P = (val Support.prim region prim_name) in
  let module S = Mirror_dstruct.Stack.Make (P) in
  let s = S.create () in
  check (S.pop s = None) "pop empty";
  S.push s 1;
  S.push s 2;
  S.push s 3;
  check (S.peek s = Some 3) "peek";
  check (S.to_list s = [ 3; 2; 1 ]) "contents top-first";
  check (S.pop s = Some 3) "lifo 3";
  S.push s 4;
  check (S.pop s = Some 4) "lifo 4";
  check (S.pop s = Some 2) "lifo 2";
  check (S.pop s = Some 1) "lifo 1";
  check (S.pop s = None) "drained"

let queue_model () =
  let region = Support.fresh_region () in
  let module P = (val Support.prim region "mirror") in
  let module Q = Mirror_dstruct.Queue.Make (P) in
  let q = Q.create () in
  let model = Queue.create () in
  let rng = Mirror_workload.Rng.create 21 in
  for i = 1 to 3000 do
    if Mirror_workload.Rng.bool rng then begin
      Q.enqueue q i;
      Queue.add i model
    end
    else begin
      let expected = Queue.take_opt model in
      let got = Q.dequeue q in
      check (got = expected) "dequeue agrees with model"
    end
  done;
  check (Q.to_list q = List.of_seq (Queue.to_seq model)) "final contents"

(* -- concurrent linearizability under the scheduler ---------------------------- *)

let queue_linearizable () =
  for seed = 1 to 60 do
    let region = Support.fresh_region () in
    let module P = (val Support.prim region "mirror") in
    let module Q = Mirror_dstruct.Queue.Make (P) in
    let q = Q.create () in
    let clock = Atomic.make 0 in
    let log = ref [] in
    let worker wid () =
      for i = 1 to 4 do
        let inv = Atomic.fetch_and_add clock 1 in
        if (wid + i) mod 2 = 0 then begin
          Q.enqueue q ((wid * 10) + i);
          let resp = Atomic.fetch_and_add clock 1 in
          log :=
            { L.op = Queue_spec.Enq ((wid * 10) + i); res = Some Queue_spec.RU; inv; resp }
            :: !log
        end
        else begin
          let r = Q.dequeue q in
          let resp = Atomic.fetch_and_add clock 1 in
          log := { L.op = Queue_spec.Deq; res = Some (Queue_spec.RO r); inv; resp } :: !log
        end
      done
    in
    let o = Sched.run ~seed [ worker 1; worker 2; worker 3 ] in
    check o.Sched.completed "completed";
    let final = Q.to_list q in
    check
      (L.check (module Queue_spec) ~init:[]
         ~final_ok:(fun st -> st = final)
         (Array.of_list (List.rev !log)))
      (Printf.sprintf "seed %d: queue history linearizable" seed)
  done

let stack_linearizable () =
  for seed = 1 to 60 do
    let region = Support.fresh_region () in
    let module P = (val Support.prim region "mirror") in
    let module S = Mirror_dstruct.Stack.Make (P) in
    let s = S.create () in
    let clock = Atomic.make 0 in
    let log = ref [] in
    let worker wid () =
      for i = 1 to 4 do
        let inv = Atomic.fetch_and_add clock 1 in
        if (wid + i) mod 2 = 0 then begin
          S.push s ((wid * 10) + i);
          let resp = Atomic.fetch_and_add clock 1 in
          log :=
            { L.op = Stack_spec.Push ((wid * 10) + i); res = Some Stack_spec.RU; inv; resp }
            :: !log
        end
        else begin
          let r = S.pop s in
          let resp = Atomic.fetch_and_add clock 1 in
          log := { L.op = Stack_spec.Pop; res = Some (Stack_spec.RO r); inv; resp } :: !log
        end
      done
    in
    let o = Sched.run ~seed [ worker 1; worker 2; worker 3 ] in
    check o.Sched.completed "completed";
    let final = S.to_list s in
    check
      (L.check (module Stack_spec) ~init:[]
         ~final_ok:(fun st -> st = final)
         (Array.of_list (List.rev !log)))
      (Printf.sprintf "seed %d: stack history linearizable" seed)
  done

(* -- crash/recovery -------------------------------------------------------------- *)

let queue_crash_roundtrip prim_name () =
  let region = Support.fresh_region () in
  let module P = (val Support.prim region prim_name) in
  let module Q = Mirror_dstruct.Queue.Make (P) in
  let q = Q.create () in
  for i = 1 to 30 do
    Q.enqueue q i
  done;
  for _ = 1 to 10 do
    ignore (Q.dequeue q)
  done;
  Mirror_nvm.Region.crash region;
  Q.recover q;
  Mirror_nvm.Region.mark_recovered region;
  check (Q.to_list q = List.init 20 (fun i -> i + 11)) "queue contents preserved";
  check (Q.dequeue q = Some 11) "usable after recovery";
  Q.enqueue q 99;
  check (List.rev (Q.to_list q) |> List.hd = 99) "enqueue after recovery"

let stack_crash_roundtrip prim_name () =
  let region = Support.fresh_region () in
  let module P = (val Support.prim region prim_name) in
  let module S = Mirror_dstruct.Stack.Make (P) in
  let s = S.create () in
  for i = 1 to 20 do
    S.push s i
  done;
  for _ = 1 to 5 do
    ignore (S.pop s)
  done;
  Mirror_nvm.Region.crash region;
  S.recover s;
  Mirror_nvm.Region.mark_recovered region;
  check (S.to_list s = List.init 15 (fun i -> 15 - i)) "stack contents preserved";
  check (S.pop s = Some 15) "usable after recovery"

(* mid-operation crash torture with the full-history checker *)
let queue_crash_torture () =
  for seed = 1 to 10 do
    List.iter
      (fun crash_step ->
        let region = Support.fresh_region () in
        let module P = (val Support.prim region "mirror") in
        let module Q = Mirror_dstruct.Queue.Make (P) in
        let q = Q.create () in
        let clock = Atomic.make 0 in
        let log = ref [] in
        let pending = Array.make 3 None in
        let worker wid () =
          for i = 1 to 5 do
            let inv = Atomic.fetch_and_add clock 1 in
            if (wid + i) mod 2 = 0 then begin
              let op = Queue_spec.Enq ((wid * 10) + i) in
              pending.(wid) <- Some (op, inv);
              Q.enqueue q ((wid * 10) + i);
              let resp = Atomic.fetch_and_add clock 1 in
              log := { L.op; res = Some Queue_spec.RU; inv; resp } :: !log;
              pending.(wid) <- None
            end
            else begin
              pending.(wid) <- Some (Queue_spec.Deq, inv);
              let r = Q.dequeue q in
              let resp = Atomic.fetch_and_add clock 1 in
              log :=
                { L.op = Queue_spec.Deq; res = Some (Queue_spec.RO r); inv; resp }
                :: !log;
              pending.(wid) <- None
            end
          done
        in
        ignore
          (Sched.run ~seed ~max_steps:crash_step [ worker 0; worker 1; worker 2 ]);
        Mirror_nvm.Region.crash region;
        Q.recover q;
        Mirror_nvm.Region.mark_recovered region;
        let final = Q.to_list q in
        let events =
          List.rev !log
          @ (Array.to_list pending
            |> List.filter_map
                 (Option.map (fun (op, inv) ->
                      { L.op; res = None; inv; resp = max_int })))
        in
        check
          (L.check (module Queue_spec) ~init:[]
             ~final_ok:(fun st -> st = final)
             (Array.of_list events))
          (Printf.sprintf "seed %d cut %d: recovered queue justified" seed
             crash_step))
      [ 40; 120; 400 ]
  done

(* -- the hand-made durable queue (Friedman et al., PPoPP'18) ------------------ *)

module DQ = Mirror_handmade.Durable_queue

let test_dq_semantics () =
  let region = Support.fresh_region () in
  let q = DQ.create region in
  check (DQ.is_empty q) "empty";
  check (DQ.dequeue q = None) "dequeue empty";
  DQ.enqueue q 1;
  DQ.enqueue q 2;
  DQ.enqueue q 3;
  check (DQ.to_list q = [ 1; 2; 3 ]) "contents";
  check (DQ.dequeue q = Some 1) "fifo 1";
  check (DQ.dequeue q = Some 2) "fifo 2";
  DQ.enqueue q 4;
  check (DQ.dequeue q = Some 3) "fifo 3";
  check (DQ.dequeue q = Some 4) "fifo 4";
  check (DQ.dequeue q = None) "drained"

let test_dq_crash_roundtrip () =
  let region = Support.fresh_region () in
  let q = DQ.create region in
  for i = 1 to 30 do
    DQ.enqueue q i
  done;
  for _ = 1 to 10 do
    ignore (DQ.dequeue q)
  done;
  Mirror_nvm.Region.crash region;
  DQ.recover q;
  Mirror_nvm.Region.mark_recovered region;
  check (DQ.to_list q = List.init 20 (fun i -> i + 11)) "contents preserved";
  check (DQ.dequeue q = Some 11) "usable after recovery";
  DQ.enqueue q 99;
  check (List.rev (DQ.to_list q) |> List.hd = 99) "enqueue after recovery"

let test_dq_linearizable () =
  for seed = 1 to 40 do
    let region = Support.fresh_region () in
    let q = DQ.create region in
    let clock = Atomic.make 0 in
    let log = ref [] in
    let worker wid () =
      for i = 1 to 4 do
        let inv = Atomic.fetch_and_add clock 1 in
        if (wid + i) mod 2 = 0 then begin
          DQ.enqueue q ((wid * 10) + i);
          let resp = Atomic.fetch_and_add clock 1 in
          log :=
            { L.op = Queue_spec.Enq ((wid * 10) + i); res = Some Queue_spec.RU; inv; resp }
            :: !log
        end
        else begin
          let r = DQ.dequeue q in
          let resp = Atomic.fetch_and_add clock 1 in
          log := { L.op = Queue_spec.Deq; res = Some (Queue_spec.RO r); inv; resp } :: !log
        end
      done
    in
    let o = Sched.run ~seed [ worker 1; worker 2; worker 3 ] in
    check o.Sched.completed "completed";
    let final = DQ.to_list q in
    check
      (L.check (module Queue_spec) ~init:[]
         ~final_ok:(fun st -> st = final)
         (Array.of_list (List.rev !log)))
      (Printf.sprintf "seed %d: durable-queue history linearizable" seed)
  done

let test_dq_crash_torture () =
  for seed = 1 to 10 do
    List.iter
      (fun crash_step ->
        let region = Support.fresh_region () in
        let q = DQ.create region in
        let clock = Atomic.make 0 in
        let log = ref [] in
        let pending = Array.make 3 None in
        let worker wid () =
          for i = 1 to 5 do
            let inv = Atomic.fetch_and_add clock 1 in
            if (wid + i) mod 2 = 0 then begin
              let op = Queue_spec.Enq ((wid * 10) + i) in
              pending.(wid) <- Some (op, inv);
              DQ.enqueue q ((wid * 10) + i);
              let resp = Atomic.fetch_and_add clock 1 in
              log := { L.op; res = Some Queue_spec.RU; inv; resp } :: !log;
              pending.(wid) <- None
            end
            else begin
              pending.(wid) <- Some (Queue_spec.Deq, inv);
              let r = DQ.dequeue q in
              let resp = Atomic.fetch_and_add clock 1 in
              log :=
                { L.op = Queue_spec.Deq; res = Some (Queue_spec.RO r); inv; resp }
                :: !log;
              pending.(wid) <- None
            end
          done
        in
        ignore
          (Sched.run ~seed ~max_steps:crash_step [ worker 0; worker 1; worker 2 ]);
        Mirror_nvm.Region.crash region;
        DQ.recover q;
        Mirror_nvm.Region.mark_recovered region;
        let final = DQ.to_list q in
        let events =
          List.rev !log
          @ (Array.to_list pending
            |> List.filter_map
                 (Option.map (fun (op, inv) ->
                      { L.op; res = None; inv; resp = max_int })))
        in
        check
          (L.check (module Queue_spec) ~init:[]
             ~final_ok:(fun st -> st = final)
             (Array.of_list events))
          (Printf.sprintf "dq seed %d cut %d: recovered queue justified" seed
             crash_step))
      [ 30; 100; 350 ]
  done

let prim_cases mk name =
  List.map
    (fun p -> Alcotest.test_case (name ^ "/" ^ p) `Quick (mk p))
    Support.all_prim_names

(* -- allocation ---------------------------------------------------------- *)

(* Minor words one Mirror enqueue allocates, after a warm-up enqueue.  The
   new node's [next] starts on the queue's one [None] birth, so the
   enqueue allocates no birth entry of its own: 50 words, 54 with a
   private birth per node. *)
let test_enqueue_alloc () =
  let region = Support.fresh_region ~track:false () in
  let module P = (val Support.prim region "mirror") in
  let module Q = Mirror_dstruct.Queue.Make (P) in
  let q = Q.create () in
  Q.enqueue q 0;
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    Q.enqueue q i
  done;
  let w = (Gc.minor_words () -. w0) /. float_of_int n in
  check (w <= 50.0) (Printf.sprintf "enqueue: %.2f minor words, at most 50" w)

let suite =
  [
    ( "queue-stack",
      prim_cases queue_semantics "queue semantics"
      @ prim_cases stack_semantics "stack semantics"
      @ [
          Alcotest.test_case "queue model" `Quick queue_model;
          Alcotest.test_case "queue linearizable" `Quick queue_linearizable;
          Alcotest.test_case "stack linearizable" `Quick stack_linearizable;
          Alcotest.test_case "queue crash roundtrip (mirror)" `Quick
            (queue_crash_roundtrip "mirror");
          Alcotest.test_case "queue crash roundtrip (izraelevitz)" `Quick
            (queue_crash_roundtrip "izraelevitz");
          Alcotest.test_case "queue crash roundtrip (mirror-nvmm)" `Quick
            (queue_crash_roundtrip "mirror-nvmm");
          Alcotest.test_case "stack crash roundtrip (mirror)" `Quick
            (stack_crash_roundtrip "mirror");
          Alcotest.test_case "stack crash roundtrip (nvtraverse)" `Quick
            (stack_crash_roundtrip "nvtraverse");
          Alcotest.test_case "queue mid-op crash torture" `Quick
            queue_crash_torture;
          Alcotest.test_case "durable-queue semantics" `Quick test_dq_semantics;
          Alcotest.test_case "durable-queue crash roundtrip" `Quick
            test_dq_crash_roundtrip;
          Alcotest.test_case "durable-queue linearizable" `Quick
            test_dq_linearizable;
          Alcotest.test_case "durable-queue mid-op crash torture" `Quick
            test_dq_crash_torture;
          Alcotest.test_case "enqueue: minor words per call" `Quick
            test_enqueue_alloc;
        ] );
  ]
