(** Shared test machinery: reusable correctness batteries applied to every
    (data structure x persistence strategy) combination. *)

open Mirror_dstruct

let fresh_region ?(track = true) ?(evict = 0.0) ?(seed = 7) ?(elide = false) () =
  Mirror_nvm.Region.create ~track_slots:track ~runtime_evict_prob:evict ~seed
    ~elide ()

let prim region name = Mirror_prim.Prim.by_name region name

let all_prim_names = Mirror_prim.Prim.all_names
let all_ds = Sets.all_ds

(** Heap words [x] owns beyond the region [r].  [r] must be untracked, so
    it holds no closure back to [x] and the subtraction is exact. *)
let own_words x r =
  Obj.reachable_words (Obj.repr x) - Obj.reachable_words (Obj.repr r)

(* -- sequential battery ----------------------------------------------------- *)

let check b msg = Alcotest.(check bool) msg true b

(** [contains hay needle]: [needle] occurs in [hay]. *)
let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(** Deterministic sequential semantics checks, shared by every variant. *)
let seq_semantics (make : unit -> Sets.pack) () =
  let (module S) = make () in
  let t = S.create ~capacity:64 () in
  check (not (S.contains t 5)) "empty: no 5";
  check (S.insert t 5 50) "insert 5";
  check (S.contains t 5) "contains 5";
  check (not (S.insert t 5 51)) "duplicate insert fails";
  check (S.find_opt t 5 = Some 50) "find_opt keeps first value";
  check (S.insert t 3 30) "insert 3";
  check (S.insert t 9 90) "insert 9";
  check (S.to_list t = [ (3, 30); (5, 50); (9, 90) ]) "sorted contents";
  check (S.remove t 5) "remove 5";
  check (not (S.remove t 5)) "double remove fails";
  check (not (S.contains t 5)) "5 gone";
  check (S.contains t 3 && S.contains t 9) "others remain";
  check (S.insert t 5 55) "reinsert 5";
  check (S.find_opt t 5 = Some 55) "new value visible";
  check (S.to_list t = [ (3, 30); (5, 55); (9, 90) ]) "final contents"

(** Random sequential run against a model. *)
let seq_model ?(ops = 3000) ?(range = 64) ?(seed = 11) (make : unit -> Sets.pack)
    () =
  let (module S) = make () in
  let t = S.create ~capacity:range () in
  let model = Hashtbl.create 97 in
  let rng = Mirror_workload.Rng.create seed in
  for i = 1 to ops do
    let k = Mirror_workload.Rng.int rng range in
    match Mirror_workload.Rng.int rng 3 with
    | 0 ->
        let expected = not (Hashtbl.mem model k) in
        let got = S.insert t k i in
        if got then Hashtbl.replace model k i;
        if got <> expected then
          Alcotest.failf "op %d: insert %d returned %b, model says %b" i k got
            expected
    | 1 ->
        let expected = Hashtbl.mem model k in
        let got = S.remove t k in
        if got then Hashtbl.remove model k;
        if got <> expected then
          Alcotest.failf "op %d: remove %d returned %b, model says %b" i k got
            expected
    | _ ->
        let expected = Hashtbl.mem model k in
        let got = S.contains t k in
        if got <> expected then
          Alcotest.failf "op %d: contains %d returned %b, model says %b" i k
            got expected
  done;
  let final = List.map fst (S.to_list t) |> List.sort compare in
  let model_keys =
    Hashtbl.fold (fun k _ acc -> k :: acc) model [] |> List.sort compare
  in
  Alcotest.(check (list int)) "final contents match model" model_keys final

(* -- concurrent batteries ---------------------------------------------------- *)

(** Run a mixed workload from several domains, record all results, then use
    the per-key linearizability checker on the quiesced final state.  On one
    core this mostly exercises preemption points, but it is a full
    correctness check, not just a smoke test. *)
let domain_stress ?(threads = 4) ?(ops = 400) ?(range = 16) ?(seed = 3)
    (make : unit -> Sets.pack) () =
  let (module S) = make () in
  let t = S.create ~capacity:range () in
  List.iter
    (fun k -> ignore (S.insert t k k))
    (Mirror_workload.Workload.prefill_keys ~range);
  let clock = Atomic.make 0 in
  let workers =
    Array.init threads (fun i ->
        {
          Mirror_harness.Durable.rng = Mirror_workload.Rng.split ~seed i;
          log = [];
          pending = None;
        })
  in
  let body i () =
    let w = workers.(i) in
    for _ = 1 to ops do
      let op =
        Mirror_workload.Workload.gen w.Mirror_harness.Durable.rng
          (Mirror_workload.Workload.of_updates 60)
          ~range
      in
      let key, kind =
        match op with
        | Mirror_workload.Workload.Lookup k ->
            (k, Mirror_harness.Durable.K_lookup)
        | Insert (k, _) -> (k, Mirror_harness.Durable.K_insert)
        | Remove k -> (k, Mirror_harness.Durable.K_remove)
      in
      let inv = Atomic.fetch_and_add clock 1 in
      let ok =
        match kind with
        | Mirror_harness.Durable.K_lookup -> S.contains t key
        | Mirror_harness.Durable.K_insert -> S.insert t key key
        | Mirror_harness.Durable.K_remove -> S.remove t key
      in
      let resp = Atomic.fetch_and_add clock 1 in
      w.Mirror_harness.Durable.log <-
        { key; kind; inv; resp; ok = Some ok; epoch = 0 }
        :: w.Mirror_harness.Durable.log
    done
  in
  let doms = Array.init threads (fun i -> Domain.spawn (body i)) in
  Array.iter Domain.join doms;
  let observed = S.to_list t in
  let violations =
    Mirror_harness.Durable.validate
      ~prefilled:Mirror_workload.Workload.is_prefilled ~range ~observed workers
  in
  match violations with
  | [] -> ()
  | v :: _ ->
      Alcotest.fail
        (Format.asprintf "linearizability violation: %a"
           Mirror_harness.Durable.pp_violation v)

(** Same check under the deterministic scheduler, many seeds: this is where
    helping paths and races actually get explored on a single core. *)
let sched_stress ?(tasks = 3) ?(ops = 12) ?(range = 8) ?(seeds = 40)
    (make : unit -> Sets.pack) () =
  for seed = 1 to seeds do
    let (module S) = make () in
    let t = S.create ~capacity:range () in
    List.iter
      (fun k -> ignore (S.insert t k k))
      (Mirror_workload.Workload.prefill_keys ~range);
    let clock = Atomic.make 0 in
    let workers =
      Array.init tasks (fun i ->
          {
            Mirror_harness.Durable.rng = Mirror_workload.Rng.split ~seed i;
            log = [];
            pending = None;
          })
    in
    let task i () =
      let w = workers.(i) in
      for _ = 1 to ops do
        let op =
          Mirror_workload.Workload.gen w.Mirror_harness.Durable.rng
            (Mirror_workload.Workload.of_updates 70)
            ~range
        in
        let key, kind =
          match op with
          | Mirror_workload.Workload.Lookup k ->
              (k, Mirror_harness.Durable.K_lookup)
          | Insert (k, _) -> (k, Mirror_harness.Durable.K_insert)
          | Remove k -> (k, Mirror_harness.Durable.K_remove)
        in
        let inv = Atomic.fetch_and_add clock 1 in
        let ok =
          match kind with
          | Mirror_harness.Durable.K_lookup -> S.contains t key
          | Mirror_harness.Durable.K_insert -> S.insert t key key
          | Mirror_harness.Durable.K_remove -> S.remove t key
        in
        let resp = Atomic.fetch_and_add clock 1 in
        w.Mirror_harness.Durable.log <-
          { key; kind; inv; resp; ok = Some ok; epoch = 0 }
          :: w.Mirror_harness.Durable.log
      done
    in
    let outcome =
      Mirror_schedsim.Sched.run ~seed (List.init tasks (fun i -> task i))
    in
    assert outcome.Mirror_schedsim.Sched.completed;
    let observed = S.to_list t in
    let violations =
      Mirror_harness.Durable.validate
        ~prefilled:Mirror_workload.Workload.is_prefilled ~range ~observed
        workers
    in
    (match violations with
    | [] -> ()
    | v :: _ ->
        Alcotest.failf "seed %d: linearizability violation: %s" seed
          (Format.asprintf "%a" Mirror_harness.Durable.pp_violation v))
  done

(** The full battery for one variant.  [semantics:false] skips the
    fixed-value checks (Cmap has put-or-update semantics). *)
let battery ?(semantics = true) name (make : unit -> Sets.pack) =
  (if semantics then
     [ Alcotest.test_case (name ^ " semantics") `Quick (seq_semantics make) ]
   else [])
  @ [
      Alcotest.test_case (name ^ " model-based") `Quick (seq_model make);
      Alcotest.test_case (name ^ " sched-stress") `Quick (sched_stress make);
    ]

let battery_with_domains ?semantics name make =
  battery ?semantics name make
  @ [ Alcotest.test_case (name ^ " domain-stress") `Slow (domain_stress make) ]
