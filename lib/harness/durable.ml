(** Durable-linearizability torture testing (Theorem 5.1, executable).

    Runs a mixed workload over a set under the deterministic interleaving
    scheduler, cuts the execution at an arbitrary protocol step (a simulated
    power failure mid-operation), applies a crash policy to the region,
    runs the recovery procedure, and then validates the recovered contents
    against the recorded history:

    - every operation that *completed* before the crash must be explained;
    - operations cut in flight may each have taken effect or not;
    - the per-key membership after recovery must be reachable by some
      real-time-respecting linearization ({!Linearize}).

    Per-key checking is sound for sets because operations on distinct keys
    commute.  A domain-based variant crashes at operation boundaries for
    coverage under real parallelism. *)

open Mirror_dstruct

type op_kind = K_insert | K_remove | K_lookup

type entry = {
  key : int;
  kind : op_kind;
  inv : int;
  resp : int;
  ok : bool option;  (** [None]: cut by the crash *)
  epoch : int;
      (** region epoch at completion ([0]: strict discipline, no epoch
          semantics).  Buffered validation treats completed operations
          from epochs past the durable cut as optional — losing them is
          bounded staleness, not a violation. *)
}

type violation = {
  vkey : int;
  observed : bool;
  events : entry list;
}

let pp_violation ppf v =
  let kind = function K_insert -> "ins" | K_remove -> "rem" | K_lookup -> "get" in
  Format.fprintf ppf "key %d: observed %b unjustified by history [%a]" v.vkey
    v.observed
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       (fun ppf e ->
         Format.fprintf ppf "%s@%d-%d=%s" (kind e.kind) e.inv e.resp
           (match e.ok with None -> "?" | Some b -> string_of_bool b)))
    v.events

type worker = {
  rng : Mirror_workload.Rng.t;
  mutable log : entry list;
  mutable pending : (int * op_kind * int) option;  (** key, kind, inv *)
}

(** Validate the recovered state against the recorded history.  Returns the
    violations (empty = durably linearizable execution).  [durable_epoch]
    switches to {e buffered} durable linearizability: completed operations
    whose [epoch] lies past the cut are demoted to optional (recovery is
    allowed to discard them with the incomplete epochs); everything at or
    below the cut must still be explained.  Omitting it is the strict
    validator — running it over a buffered execution flags the dropped
    tail, the buffered negative control. *)
let validate ?durable_epoch ~prefilled ~range ~(observed : (int * int) list)
    (workers : worker array) : violation list =
  (* an operation completing past the durable cut is in flight {e with
     respect to the cut}: the crash conceptually lands at the epoch
     boundary, so the op may have taken (partial, rolled-back) effect or
     not — the same freedom the checker grants ops cut mid-instruction,
     encoded the same way (no recorded result, no response). *)
  let relax e =
    match durable_epoch with
    | Some de when e.epoch > de && e.ok <> None ->
        { e with ok = None; resp = max_int }
    | _ -> e
  in
  let by_key : (int, entry list) Hashtbl.t = Hashtbl.create 97 in
  let add e =
    let e = relax e in
    Hashtbl.replace by_key e.key (e :: Option.value ~default:[] (Hashtbl.find_opt by_key e.key))
  in
  Array.iter
    (fun w ->
      List.iter add w.log;
      match w.pending with
      | Some (key, kind, inv) ->
          add { key; kind; inv; resp = max_int; ok = None; epoch = 0 }
      | None -> ())
    workers;
  let obs_tbl = Hashtbl.create 97 in
  List.iter (fun (k, _) -> Hashtbl.replace obs_tbl k ()) observed;
  let member k = Hashtbl.mem obs_tbl k in
  let violations = ref [] in
  (* keys never touched by any operation must retain their prefill state *)
  for k = 0 to range - 1 do
    if not (Hashtbl.mem by_key k) && member k <> prefilled k then
      violations := { vkey = k; observed = member k; events = [] } :: !violations
  done;
  (* nothing outside the key range may appear *)
  List.iter
    (fun (k, _) ->
      if k < 0 || k >= range then
        violations := { vkey = k; observed = true; events = [] } :: !violations)
    observed;
  let check_key key events =
    let evs =
      List.map
        (fun e ->
          {
            Linearize.op =
              (match e.kind with
              | K_insert -> Linearize.Set_key_spec.Insert
              | K_remove -> Linearize.Set_key_spec.Remove
              | K_lookup -> Linearize.Set_key_spec.Lookup);
            res = e.ok;
            inv = e.inv;
            resp = e.resp;
          })
        events
      |> Array.of_list
    in
    let obs = member key in
    let ok =
      Linearize.check
        (module Linearize.Set_key_spec)
        ~init:(prefilled key)
        ~final_ok:(fun m -> m = obs)
        evs
    in
    if not ok then
      violations := { vkey = key; observed = obs; events } :: !violations
  in
  Hashtbl.iter check_key by_key;
  !violations

type result = {
  violations : violation list;
  completed_ops : int;
  inflight_ops : int;
  crashed_mid_run : bool;
  psan : Mirror_psan.Psan.report option;
      (** sanitizer report when the run was sanitized ([?psan]) *)
}

(** A freshly created, prefilled structure together with the workload tasks
    that mutate it and the workers recording the history those tasks
    produce.  The cut-operation capture (an operation in flight when a crash
    lands is logged as [pending], which {!validate} treats as optional) is
    shared between the torture harness and the crash-point model checker, so
    both check exactly the same histories. *)
type capture = {
  cap_workers : worker array;
  cap_tasks : (unit -> unit) list;
  cap_observed : unit -> (int * int) list;  (** quiesced contents *)
  cap_recover : unit -> unit;  (** the structure's tracing routine *)
}

(** Build the standard mixed-workload capture over a packed set:
    [threads] tasks of [ops_per_task] operations drawn from [mix], every
    invocation/response timestamped on a shared logical clock.  Determinism:
    the op stream depends only on [seed], so a replayed schedule re-executes
    the identical history. *)
let workload_capture ?(epoch_of = fun () -> 0) (module S : Sets.SET) ~seed
    ~threads ~ops_per_task ~range ~mix : capture =
  let t = S.create ~capacity:range () in
  List.iter
    (fun k -> ignore (S.insert t k k))
    (Mirror_workload.Workload.prefill_keys ~range);
  let clock = Atomic.make 0 in
  let workers =
    Array.init threads (fun i ->
        { rng = Mirror_workload.Rng.split ~seed i; log = []; pending = None })
  in
  let task i () =
    let w = workers.(i) in
    for _ = 1 to ops_per_task do
      let op = Mirror_workload.Workload.gen w.rng mix ~range in
      let key, kind =
        match op with
        | Mirror_workload.Workload.Lookup k -> (k, K_lookup)
        | Insert (k, _) -> (k, K_insert)
        | Remove k -> (k, K_remove)
      in
      let inv = Atomic.fetch_and_add clock 1 in
      w.pending <- Some (key, kind, inv);
      (* operation boundaries for the sanitizer: the taint window of each
         logical operation is begin..complete (free when psan is off) *)
      Mirror_nvm.Hooks.op_point Mirror_nvm.Hooks.Op_begin;
      let ok =
        match kind with
        | K_lookup -> S.contains t key
        | K_insert -> S.insert t key key
        | K_remove -> S.remove t key
      in
      Mirror_nvm.Hooks.op_point Mirror_nvm.Hooks.Op_complete;
      (* sampled in the same fiber step as completion: the op's deferred
         writes are all tagged with epochs <= this one, so "epoch <= cut"
         implies every write survives the cut *)
      let epoch = epoch_of () in
      let resp = Atomic.fetch_and_add clock 1 in
      w.log <- { key; kind; inv; resp; ok = Some ok; epoch } :: w.log;
      w.pending <- None
    done
  in
  {
    cap_workers = workers;
    cap_tasks = List.init threads (fun i -> task i);
    cap_observed = (fun () -> S.to_list t);
    cap_recover = (fun () -> S.recover t);
  }

(** Schedsim-based torture: [threads] logical tasks of [ops_per_task]
    operations each, cut at [crash_step] scheduling decisions.
    [buffered]: tag every completion with the region's open epoch, make
    the prefill durable (quiesce) before scheduling starts, and validate
    against the buffered discipline (completions past the durable cut are
    bounded staleness, not violations). *)
let torture_schedsim (module S : Sets.SET) ~(region : Mirror_nvm.Region.t)
    ~(recover : unit -> unit) ?(policy = Mirror_nvm.Region.Adversarial)
    ?(buffered = false) ?psan ~seed ~threads ~ops_per_task ~range ~mix
    ~crash_step () : result =
  (* the sanitizer shadows everything from structure creation to the crash:
     prefill, the scheduled workload, and the cut itself *)
  let sanitized body =
    match psan with
    | None -> body ()
    | Some sa -> Mirror_psan.Psan.install sa body
  in
  let epoch_of =
    if buffered then fun () -> Mirror_nvm.Region.cur_epoch region
    else fun () -> 0
  in
  let cap, outcome =
    sanitized (fun () ->
        let cap =
          workload_capture ~epoch_of (module S) ~seed ~threads ~ops_per_task
            ~range ~mix
        in
        (* the prefilled structure is handed over durable: its deferred
           writes must not be at the mercy of the first crash *)
        if buffered then Mirror_nvm.Region.quiesce region;
        let outcome =
          Mirror_schedsim.Sched.run ~seed ~max_steps:crash_step cap.cap_tasks
        in
        (cap, outcome))
  in
  Mirror_nvm.Region.crash ~policy region;
  Mirror_nvm.Region.recovery_session region (fun () ->
      recover ();
      cap.cap_recover ());
  let observed = cap.cap_observed () in
  let workers = cap.cap_workers in
  let violations =
    validate
      ?durable_epoch:
        (if buffered then Some (Mirror_nvm.Region.durable_epoch region)
         else None)
      ~prefilled:Mirror_workload.Workload.is_prefilled ~range ~observed
      workers
  in
  let completed = Array.fold_left (fun a w -> a + List.length w.log) 0 workers in
  let inflight =
    Array.fold_left (fun a w -> a + if w.pending <> None then 1 else 0) 0 workers
  in
  {
    violations;
    completed_ops = completed;
    inflight_ops = inflight;
    crashed_mid_run = not outcome.completed;
    psan = Option.map Mirror_psan.Psan.report psan;
  }

(** Domain-based torture: real parallelism, crash at operation boundaries
    (workers are quiesced before the region crashes). *)
let torture_domains (module S : Sets.SET) ~(region : Mirror_nvm.Region.t)
    ~(recover : unit -> unit) ?(policy = Mirror_nvm.Region.Adversarial)
    ~seed ~threads ~ops_per_task ~range ~mix () : result =
  let t = S.create ~capacity:range () in
  List.iter
    (fun k -> ignore (S.insert t k k))
    (Mirror_workload.Workload.prefill_keys ~range);
  let clock = Atomic.make 0 in
  let stop = Atomic.make false in
  let workers =
    Array.init threads (fun i ->
        { rng = Mirror_workload.Rng.split ~seed i; log = []; pending = None })
  in
  let body i () =
    let w = workers.(i) in
    let n = ref 0 in
    while (not (Atomic.get stop)) && !n < ops_per_task do
      incr n;
      let op = Mirror_workload.Workload.gen w.rng mix ~range in
      let key, kind =
        match op with
        | Mirror_workload.Workload.Lookup k -> (k, K_lookup)
        | Insert (k, _) -> (k, K_insert)
        | Remove k -> (k, K_remove)
      in
      let inv = Atomic.fetch_and_add clock 1 in
      let ok =
        match kind with
        | K_lookup -> S.contains t key
        | K_insert -> S.insert t key key
        | K_remove -> S.remove t key
      in
      let resp = Atomic.fetch_and_add clock 1 in
      w.log <- { key; kind; inv; resp; ok = Some ok; epoch = 0 } :: w.log
    done
  in
  let doms = Array.init threads (fun i -> Domain.spawn (body i)) in
  (* let roughly half the work happen, then pull the plug *)
  while Atomic.get clock < threads * ops_per_task do
    Domain.cpu_relax ()
  done;
  Atomic.set stop true;
  Array.iter Domain.join doms;
  Mirror_nvm.Region.crash ~policy region;
  Mirror_nvm.Region.recovery_session region (fun () ->
      recover ();
      S.recover t);
  let observed = S.to_list t in
  let violations =
    validate ~prefilled:Mirror_workload.Workload.is_prefilled ~range ~observed workers
  in
  let completed = Array.fold_left (fun a w -> a + List.length w.log) 0 workers in
  {
    violations;
    completed_ops = completed;
    inflight_ops = 0;
    crashed_mid_run = false;
    psan = None;
  }
