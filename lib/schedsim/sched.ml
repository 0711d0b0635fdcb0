(** Deterministic cooperative interleaving scheduler.

    The container has a single core, so racing real domains explores very few
    interleavings.  Instead, logical threads run as effect-based fibers that
    yield control at every simulated shared-memory access (via
    {!Mirror_nvm.Hooks}), and this scheduler decides — randomly from a seed,
    or exhaustively — which thread performs the next step.  This turns the
    Mirror protocol's races (helping, the Figure 3 ABA scenario, crashes in
    the middle of an operation) into reproducible unit tests.

    Continuations are one-shot, so exhaustive exploration re-runs the task
    set once per schedule; the caller supplies a factory creating fresh state
    and tasks. *)

type _ Effect.t += Yield : unit Effect.t

exception Killed
(** Raised into live fibers when a simulated crash cuts them off. *)

type runnable =
  | Start of (unit -> unit)
  | Resume of (unit, unit) Effect.Deep.continuation

type outcome = {
  steps : int;  (** scheduling decisions taken *)
  completed : bool;  (** all tasks ran to completion (no crash cut) *)
}

let index_of x xs =
  let rec go i = function
    | [] -> invalid_arg "Sched.index_of: not runnable"
    | y :: rest -> if y = x then i else go (i + 1) rest
  in
  go 0 xs

(* The one fiber engine every scheduler below drives.  [pick ids] sees the
   runnable thread ids, in runnable-list order, and returns the index of
   the one to step next, or [None] to cut the run there.  The cut — asked
   for by the picker, by the step budget, or by [stop ()] — discontinues
   every live fiber with {!Killed}: the system "crashes" with those
   operations cut mid-flight, and their [Fun.protect] finalizers run.

   Fibers are tagged with their task index, which doubles as the logical
   thread id announced on access events ({!Mirror_nvm.Hooks.tid}): the
   sanitizer needs to know which logical thread performed each step, not
   which OS domain (all fibers share one).  The tag rides along without
   affecting list order, so recorded schedules replay unchanged. *)
let drive ~(pick : int list -> int option) ?(max_steps = max_int)
    ?(stop = fun () -> false) (tasks : (unit -> unit) list) : outcome =
  let runnable : (int * runnable) list ref =
    ref (List.mapi (fun i t -> (i, Start t)) tasks)
  in
  let steps = ref 0 in
  let current = ref (-1) in
  let take i =
    let rec go k acc = function
      | [] -> assert false
      | x :: rest ->
          if k = i then begin
            runnable := List.rev_append acc rest;
            x
          end
          else go (k + 1) (x :: acc) rest
    in
    go 0 [] !runnable
  in
  let handler_for id : (unit, unit) Effect.Deep.handler =
    {
      retc = (fun () -> ());
      exnc = (fun e -> match e with Killed -> () | e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  runnable := (id, Resume k) :: !runnable)
          | _ -> None);
    }
  in
  let step (id, r) =
    current := id;
    match r with
    | Start t -> Effect.Deep.match_with t () (handler_for id)
    | Resume k -> Effect.Deep.continue k ()
  in
  (* cut every live fiber where it stands *)
  let cut live =
    List.iter
      (function
        | _, Start _ -> ()
        | id, Resume k ->
            current := id;
            Effect.Deep.discontinue k Killed)
      live;
    runnable := []
  in
  let rec loop () =
    match !runnable with
    | [] -> true
    | live -> (
        let choice =
          if !steps >= max_steps || stop () then None
          else pick (List.map fst live)
        in
        match choice with
        | None ->
            cut live;
            false
        | Some i ->
            incr steps;
            step (take i);
            loop ())
  in
  Mirror_nvm.Hooks.with_yield
    (fun () -> Effect.perform Yield)
    (fun () ->
      Mirror_nvm.Hooks.with_tid
        (fun () ->
          if !current >= 0 then !current else Mirror_nvm.Hooks.default_tid ())
        (fun () ->
          let completed = loop () in
          { steps = !steps; completed }))

(** [run_with_picker ~pick ~max_steps tasks] drives [tasks] to completion or
    until [max_steps] scheduling points, whichever comes first.  [pick n]
    chooses which of the [n] currently runnable threads steps next; an
    out-of-range choice is clamped to 0.  When the step budget is hit — or
    [stop ()] turns true, e.g. because a crash-point hook fired inside the
    running fiber — all live fibers are discontinued with {!Killed}. *)
let run_with_picker ~(pick : int -> int) ?max_steps ?stop tasks : outcome =
  drive ?max_steps ?stop tasks ~pick:(fun ids ->
      let n = List.length ids in
      let i = pick n in
      Some (if i < 0 || i >= n then 0 else i))

(* -- recordable / replayable schedules ------------------------------------ *)

(** [run_recorded ~seed tasks] schedules randomly from [seed] like {!run},
    but also returns the exact sequence of choices taken, one per scheduling
    decision.  Feeding that sequence to {!run_replay} over a fresh, otherwise
    deterministic task set reproduces the execution step for step — the
    foundation of the model checker's replayable counterexamples. *)
let run_recorded ?(seed = 1) ?max_steps ?stop (tasks : (unit -> unit) list) :
    outcome * int array =
  let rng = Random.State.make [| seed |] in
  let picks = ref [] in
  let pick n =
    let c = Random.State.int rng n in
    picks := c :: !picks;
    c
  in
  let outcome = run_with_picker ~pick ?max_steps ?stop tasks in
  (outcome, Array.of_list (List.rev !picks))

(** Random scheduling from a seed. *)
let run ?seed ?max_steps tasks = fst (run_recorded ?seed ?max_steps tasks)

exception Replay_exhausted of int

(** [run_replay ~picks tasks] re-executes a recorded schedule.  Choices
    beyond the recorded prefix fall back to thread 0 (deterministic), so a
    truncated trace is still a complete, replayable schedule — that is what
    counterexample shrinking relies on.  Out-of-range choices are clamped the
    same way {!run_with_picker} clamps them.

    With [~strict:true] the fallback and the clamp become errors
    ({!Replay_exhausted} carries the offending decision index): a DPOR or
    litmus replay that runs past its recorded prefix is diverging from the
    schedule it claims to reproduce, and must not silently turn into a
    different interleaving. *)
let run_replay ?(strict = false) ~(picks : int array) ?max_steps ?stop
    (tasks : (unit -> unit) list) : outcome =
  let i = ref 0 in
  let pick n =
    let d = !i in
    incr i;
    if d < Array.length picks then begin
      let c = picks.(d) in
      if strict && (c < 0 || c >= n) then raise (Replay_exhausted d);
      c
    end
    else if strict then raise (Replay_exhausted d)
    else 0
  in
  run_with_picker ~pick ?max_steps ?stop tasks

(** [explore ~seeds factory] runs [factory ()]'s tasks under [seeds]
    different random schedules; [factory] must create fresh state each time
    and return [(tasks, check)] where [check] validates the final state. *)
let explore ?(seeds = 200) (factory : unit -> (unit -> unit) list * (unit -> unit)) =
  for seed = 1 to seeds do
    let tasks, check = factory () in
    let (_ : outcome) = run ~seed tasks in
    check ()
  done

(** PCT scheduling (Burckhardt et al., ASPLOS 2010): random distinct thread
    priorities, always run the highest-priority runnable thread, and lower
    the running thread's priority at [depth - 1] random change points.
    For a bug of preemption depth d, a run finds it with probability
    >= 1/(n * k^(d-1)) — far better than uniform random for deep races.

    A picker over {!drive}: priorities follow the thread ids across
    preemptions. *)
let run_pct ?(seed = 1) ?(depth = 3) ?(expected_steps = 2_000) ?max_steps
    (tasks : (unit -> unit) list) : outcome =
  let n = List.length tasks in
  let rng = Random.State.make [| seed |] in
  (* distinct base priorities: a random permutation of n..1, plus change
     points that drop the running thread below everything *)
  let prio = Array.init n (fun i -> float_of_int (i + 1)) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = prio.(i) in
    prio.(i) <- prio.(j);
    prio.(j) <- t
  done;
  let change_points =
    Array.init (max 0 (depth - 1)) (fun k ->
        (* spread the k-th change point over the run *)
        ignore k;
        1 + Random.State.int rng (max 1 expected_steps))
    |> Array.to_list |> List.sort_uniq compare
  in
  let next_low = ref 0. in
  let low () =
    next_low := !next_low -. 1.;
    !next_low
  in
  let steps = ref 0 in
  let pick ids =
    incr steps;
    (* the highest-priority runnable thread *)
    let id =
      List.fold_left
        (fun b i -> if prio.(i) > prio.(b) then i else b)
        (List.hd ids) ids
    in
    if List.mem !steps change_points then prio.(id) <- low ();
    Some (index_of id ids)
  in
  drive ~pick ?max_steps tasks

(** Bounded-exhaustive exploration: depth-first over the tree of scheduling
    choices, visiting at most [limit] complete schedules.  Returns the number
    of schedules explored and whether the tree was exhausted. *)
let explore_exhaustive ?(limit = 10_000) ?(max_steps = 2_000)
    (factory : unit -> (unit -> unit) list * (unit -> unit)) : int * bool =
  (* [prefix] is the choice sequence to replay; beyond it we pick 0 and
     record the arity at each new decision point. *)
  let explored = ref 0 in
  let exhausted = ref false in
  let prefix : int list ref = ref [] in
  let continue_ = ref true in
  while !continue_ do
    let trace = ref [] (* (choice, arity) in reverse order *) in
    let remaining = ref !prefix in
    let pick n =
      let c =
        match !remaining with
        | c :: rest ->
            remaining := rest;
            c
        | [] -> 0
      in
      let c = if c >= n then n - 1 else c in
      trace := (c, n) :: !trace;
      c
    in
    let tasks, check = factory () in
    let (_ : outcome) = run_with_picker ~pick ~max_steps tasks in
    check ();
    incr explored;
    (* advance to the next schedule in DFS order: increment the deepest
       choice that still has a sibling, drop everything below it *)
    let rec advance = function
      | [] -> None
      | (c, n) :: above ->
          if c + 1 < n then Some (List.rev ((c + 1, n) :: above))
          else advance above
    in
    (match advance !trace with
    | None ->
        exhausted := true;
        continue_ := false
    | Some next -> prefix := List.map fst next);
    if !explored >= limit then continue_ := false
  done;
  (!explored, !exhausted)

(* -- sleep-set DPOR -------------------------------------------------------- *)

(** Step footprints, classified from the {!Mirror_nvm.Hooks.access_point}
    stream.  [f_slot >= 0] is a location-level atom; [f_slot = -1] is a
    region-level atom (fences, epoch-clock updates).  [F_update] is a
    read-modify-write whose instruction is itself a crash boundary (DWCAS,
    persistent allocation). *)
type fkind = F_read | F_write | F_update | F_flush | F_fence

type atom = {
  f_kind : fkind;
  f_slot : int;  (** normalized slot id; [-1] for region-level atoms *)
  f_rgn : int;  (** normalized region id *)
}

type footprint = atom list

(* Slot uids come from a global counter, so the same logical slot gets a
   different raw uid in every re-execution of the factory.  Footprints are
   compared *across* executions (sleep sets carry a sibling's first-step
   footprint into later runs), so atoms are keyed on per-execution ids
   assigned in order of first sight.  Because every slot announces [A_make]
   at allocation and the factory + replayed prefix perform an identical,
   deterministic allocation sequence, a slot that exists in two executions
   gets the same id in both; slots allocated inside a diverged suffix can
   only collide symbolically (their owner never ran in the other execution),
   which at worst wakes a sleeper early — sound. *)

let atoms_of_access ~slot_id ~rgn (a : Mirror_nvm.Hooks.access) : footprint =
  let open Mirror_nvm.Hooks in
  let slot k = [ { f_kind = k; f_slot = slot_id a.a_slot; f_rgn = rgn } ] in
  let region k = [ { f_kind = k; f_slot = -1; f_rgn = rgn } ] in
  match a.a_op with
  | A_load | A_load_repv -> slot F_read
  | A_store | A_write_repv | A_recovery_write -> slot F_write
  | A_cas _ | A_make _ ->
      (* a DWCAS instruction is a crash boundary whether or not it succeeds;
         a persistent allocation may flush + fence internally *)
      slot F_update
  | A_flush | A_flush_elided | A_flush_coalesced -> slot F_flush
  | A_persist_deferred -> slot F_flush @ region F_read
  | A_fence | A_fence_elided -> region F_fence
  | A_epoch_close | A_epoch_bump -> region F_write
  | A_rollback -> []

(* A step whose instruction the crash-point enumerator can pull the plug
   *just before*: every flush, fence, DWCAS and epoch-clock update.  Plain
   stores emit a Write persist event but are not probed boundaries. *)
let is_boundary a =
  match a.f_kind with
  | F_flush | F_fence | F_update -> true
  | F_write -> a.f_slot < 0 (* epoch close / bump *)
  | _ -> false

(* Two atoms conflict when reordering their steps can change any observable
   state — volatile values, or any state a crash replay can expose.

   Same-slot with a write or update involved: classic data conflict.

   Crash boundaries are the subtle half.  Persistency litmus tests observe
   *prefixes*: a crash lands just before a flush / fence / DWCAS / epoch
   bump takes effect, so moving any visible step of the same region across
   such a boundary changes the state that crash exposes — even a read
   commutes with a flush volatilely, yet "read before the flush-boundary"
   and "read after" are different crashed worlds (the read's completion
   witness differs).  Hence: a boundary conflicts with every same-region
   atom.  The two exemptions are flush/flush and fence/fence pairs —
   reordering two flushes (or two fences) leaves both the final state and
   what an adversarial crash preserves at either boundary identical
   (pending, unfenced write-backs die either way; a fence drains the same
   pending set from either side of its twin). *)
let atoms_conflict a b =
  let writes k = k = F_write || k = F_update in
  let same_slot = a.f_slot >= 0 && a.f_slot = b.f_slot in
  if same_slot && (writes a.f_kind || writes b.f_kind) then true
  else if a.f_rgn = b.f_rgn && (is_boundary a || is_boundary b) then
    not
      ((a.f_kind = F_flush && b.f_kind = F_flush)
      || (a.f_kind = F_fence && b.f_kind = F_fence))
  else false

let footprints_conflict (f : footprint) (g : footprint) =
  List.exists (fun a -> List.exists (atoms_conflict a) g) f

type dpor_report = {
  dpor_schedules : int;  (** complete schedules executed *)
  dpor_pruned : int;  (** executions cut by the sleep set (redundant) *)
  dpor_exhausted : bool;  (** the reduced tree was fully explored *)
  dpor_max_depth : int;  (** deepest scheduling decision reached *)
}

(* One scheduling decision point on the current DFS prefix.  [enabled] is
   the runnable tid list (in runnable-list order — deterministic under
   replay); [sleep] is the entry sleep set, fixed for the node's lifetime
   (a parent's chosen/done pair is frozen while any child is on the
   stack). *)
type dpor_node = {
  n_enabled : int list;
  mutable n_chosen : int;  (** tid being explored; -1 = sleep-blocked *)
  mutable n_done : (int * footprint) list;
  mutable n_backtrack : int list;
  n_sleep : (int * footprint) list;
  mutable n_fp : footprint;  (** footprint of [n_chosen]'s step, this run *)
}

(** Sleep-set DPOR (Godefroind / Flanagan–Godefroid, stateless): depth-first
    over the scheduling tree like {!explore_exhaustive}, but only branching
    where two steps' footprints genuinely conflict, and cutting executions
    whose every enabled thread is asleep (provably redundant with an
    already-explored schedule).  Backtrack points are conservative — every
    conflicting pair adds the later thread at the earlier node — which
    over-approximates classic DPOR and is therefore sound: the reduced tree
    covers one representative of every Mazurkiewicz trace.

    The factory contract is {!explore_exhaustive}'s, with one addition: all
    cross-thread communication must go through the substrate (slots,
    regions) so it shows up in the access stream.  Plain [ref] state shared
    between tasks is invisible to the footprint classifier.

    [on_schedule] fires after each complete schedule with its recorded
    choice sequence (replayable via {!run_replay}[ ~strict:true]); returning
    [false] aborts the exploration — the model checker's early exit on a
    first violation. *)
let explore_dpor ?(limit = 10_000) ?(max_steps = 2_000)
    ?(on_schedule = fun ~picks:_ -> true)
    (factory : unit -> (unit -> unit) list * (unit -> unit)) : dpor_report =
  let schedules = ref 0 and pruned = ref 0 in
  let truncated = ref false and exhausted_tree = ref false in
  let stopped = ref false in
  let max_depth = ref 0 in
  let stack : dpor_node list ref = ref [] (* deepest first *) in
  let stack_len = ref 0 in
  let node_at d = List.nth !stack (!stack_len - 1 - d) in
  let push n =
    stack := n :: !stack;
    incr stack_len
  in
  let truncate_to d =
    while !stack_len > d do
      stack := List.tl !stack;
      decr stack_len
    done
  in
  let continue_ = ref true in
  while !continue_ do
    (* ---- one execution ---- *)
    let slot_ids : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let rgn_ids : (int, int) Hashtbl.t = Hashtbl.create 4 in
    let intern tbl raw =
      match Hashtbl.find_opt tbl raw with
      | Some i -> i
      | None ->
          let i = Hashtbl.length tbl in
          Hashtbl.add tbl raw i;
          i
    in
    let cur_atoms : footprint ref = ref [] in
    let recording = ref false in
    let access_hook (a : Mirror_nvm.Hooks.access) =
      (* intern ids even outside recorded steps: allocation order during the
         factory is what keeps ids stable across executions *)
      let rgn = intern rgn_ids a.Mirror_nvm.Hooks.a_region in
      let slot_id raw = intern slot_ids raw in
      if a.Mirror_nvm.Hooks.a_slot >= 0 then
        ignore (slot_id a.Mirror_nvm.Hooks.a_slot);
      if !recording then
        cur_atoms := atoms_of_access ~slot_id ~rgn a @ !cur_atoms
    in
    let trace : (dpor_node * int * footprint) option array =
      Array.make max_steps None
    in
    let picks = Array.make max_steps 0 in
    let depth, complete =
      Mirror_nvm.Hooks.with_access access_hook (fun () ->
          let tasks, check = factory () in
          let d = ref 0 in
          let last_fp : footprint ref = ref [] in
          (* the node whose chosen step is running; its footprint is closed
             at the next decision or when the run ends — nothing runs in
             between *)
          let stepping : dpor_node option ref = ref None in
          let close () =
            match !stepping with
            | None -> ()
            | Some node ->
                stepping := None;
                recording := false;
                let fp = !cur_atoms in
                node.n_fp <- fp;
                trace.(!d) <- Some (node, node.n_chosen, fp);
                last_fp := fp;
                incr d;
                if !d > !max_depth then max_depth := !d
          in
          let pick enabled =
            close ();
            if !d >= max_steps then begin
              truncated := true;
              None
            end
            else begin
              let node =
                if !d < !stack_len then begin
                  let n = node_at !d in
                  if n.n_enabled <> enabled then
                    invalid_arg
                      "Sched.explore_dpor: factory is not deterministic \
                       (enabled sets differ under an identical prefix)";
                  n
                end
                else begin
                  let sleep =
                    if !d = 0 then []
                    else
                      let parent = node_at (!d - 1) in
                      let live (_, f) = not (footprints_conflict f !last_fp) in
                      List.filter live (parent.n_sleep @ parent.n_done)
                  in
                  let asleep t = List.mem_assoc t sleep in
                  let cands = List.filter (fun t -> not (asleep t)) enabled in
                  let chosen = match cands with [] -> -1 | t :: _ -> t in
                  let bt = if chosen >= 0 then [ chosen ] else [] in
                  let n =
                    {
                      n_enabled = enabled;
                      n_chosen = chosen;
                      n_done = [];
                      n_backtrack = bt;
                      n_sleep = sleep;
                      n_fp = [];
                    }
                  in
                  push n;
                  n
                end
              in
              if node.n_chosen < 0 then begin
                (* every enabled thread is asleep: redundant execution *)
                incr pruned;
                None
              end
              else begin
                let idx = index_of node.n_chosen enabled in
                picks.(!d) <- idx;
                cur_atoms := [];
                recording := true;
                stepping := Some node;
                Some idx
              end
            end
          in
          let o = drive ~pick tasks in
          close ();
          let depth = !d in
          if o.completed then check ();
          let tr i = match trace.(i) with Some x -> x | None -> assert false in
          (* ---- backtrack analysis over the executed trace ---- *)
          for i = 1 to depth - 1 do
            let _, ti, fi = tr i in
            for j = 0 to i - 1 do
              let nj, tj, fj = tr j in
              if ti <> tj && footprints_conflict fj fi then
                if List.mem ti nj.n_enabled then begin
                  if not (List.mem ti nj.n_backtrack) then
                    nj.n_backtrack <- ti :: nj.n_backtrack
                end
                else
                  List.iter
                    (fun t ->
                      if not (List.mem t nj.n_backtrack) then
                        nj.n_backtrack <- t :: nj.n_backtrack)
                    nj.n_enabled
            done
          done;
          (depth, o.completed))
    in
    if complete then begin
      incr schedules;
      if not (on_schedule ~picks:(Array.sub picks 0 depth)) then
        stopped := true
    end;
    (* ---- pop: advance the deepest node with an unexplored branch ---- *)
    let rec pop () =
      if !stack_len = 0 then exhausted_tree := true
      else begin
        let node = List.hd !stack in
        if node.n_chosen >= 0 then
          node.n_done <- (node.n_chosen, node.n_fp) :: node.n_done;
        let explored t = List.mem_assoc t node.n_done in
        let asleep t = List.mem_assoc t node.n_sleep in
        let cands =
          List.filter
            (fun t ->
              List.mem t node.n_backtrack && (not (explored t))
              && not (asleep t))
            node.n_enabled
        in
        match cands with
        | t :: _ -> node.n_chosen <- t
        | [] ->
            truncate_to (!stack_len - 1);
            pop ()
      end
    in
    pop ();
    if
      !exhausted_tree || !stopped || !truncated
      || !schedules + !pruned >= limit
    then continue_ := false
  done;
  {
    dpor_schedules = !schedules;
    dpor_pruned = !pruned;
    dpor_exhausted = !exhausted_tree && not !truncated && not !stopped;
    dpor_max_depth = !max_depth;
  }
