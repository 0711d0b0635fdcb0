(** The layer ladder: single-domain tight loops over each layer's public
    functions, from a bare [Atomic] upward, with latency injection off.
    Every figure is ns per call (µs for [help_advance]).

    A loop whose body is one call is timed as a whole; a call that needs
    untimed work around it (a flush needs a fence before the pending set
    grows, an epoch advance needs a filled epoch) is timed alone and the
    clock's own cost is subtracted. *)

open Mirror_nvm
module Patomic = Mirror_core.Patomic
module Ebr = Mirror_core.Ebr
module Prim = Mirror_prim.Prim

let batches = 7
let median a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

(** ns per iteration of [loop n]: iteration count sized to ~10 ms a batch,
    one warm-up batch, median of [batches]. *)
let per_call (loop : int -> unit) =
  let probe = 2_000 in
  let t0 = Clock.now () in
  loop probe;
  let ns = float_of_int (Clock.now () - t0) /. float_of_int probe in
  let n = max 1_000 (int_of_float (1e7 /. Float.max ns 1.)) in
  loop n;
  median
    (Array.init batches (fun _ ->
         let t0 = Clock.now () in
         loop n;
         float_of_int (Clock.now () - t0) /. float_of_int n))

(** ns per call timed through [time]: [loop ~n ~time] runs [n] iterations
    and wraps each call to be counted in [time]; the clock pair's cost is
    subtracted per call. *)
let per_timed_call (loop : n:int -> time:((unit -> unit) -> unit) -> unit) =
  let overhead = Lazy.force Clock.overhead_ns in
  let run n =
    let sum = ref 0 and calls = ref 0 in
    let time f =
      let t0 = Clock.now () in
      f ();
      sum := !sum + (Clock.now () - t0);
      incr calls
    in
    loop ~n ~time;
    (float_of_int !sum /. float_of_int (max 1 !calls)) -. overhead
  in
  ignore (run 2_000);
  median (Array.init batches (fun _ -> run 20_000))

let region ?(epoch_len = 1) () = Region.create ~track_slots:false ~epoch_len ()

let atomic_get () =
  let a = Atomic.make 0 in
  per_call (fun n ->
      let s = ref 0 in
      for _ = 1 to n do
        s := !s + Atomic.get a
      done;
      ignore (Sys.opaque_identity !s))

let atomic_cas () =
  let a = Atomic.make 0 in
  per_call (fun n ->
      for _ = 1 to n do
        let v = Atomic.get a in
        ignore (Sys.opaque_identity (Atomic.compare_and_set a v (v + 1)))
      done)

let slot_load () =
  let s = Slot.make (region ()) 0 in
  per_call (fun n ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Slot.load s))
      done)

let slot_store () =
  let s = Slot.make (region ()) 0 in
  per_call (fun n ->
      for i = 1 to n do
        Slot.store s i
      done)

let slot_cas_pred () =
  let s = Slot.make (region ()) 0 and k = ref 0 in
  per_call (fun n ->
      for _ = 1 to n do
        let v = !k in
        ignore
          (Sys.opaque_identity
             (Slot.cas_pred s ~expect:(fun x -> x = v) ~desired:(v + 1)));
        k := v + 1
      done)

(* A flush records one pending write-back; the fence that drains it is
   untimed for the flush figure and timed alone for the fence figure, so
   the fence always commits exactly one pending line. *)
let slot_flush () =
  let r = region () in
  let s = Slot.make r 0 in
  per_timed_call (fun ~n ~time ->
      for i = 1 to n do
        Slot.store s i;
        time (fun () -> Slot.flush s);
        Region.fence r
      done)

let region_fence () =
  let r = region () in
  let s = Slot.make r 0 in
  per_timed_call (fun ~n ~time ->
      for i = 1 to n do
        Slot.store s i;
        Slot.flush s;
        time (fun () -> Region.fence r)
      done)

let hooks_yield () =
  per_call (fun n ->
      for _ = 1 to n do
        Hooks.yield ()
      done)

let stats_get () =
  per_call (fun n ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Stats.get ()))
      done)

let ebr_enter_exit () =
  let e = Ebr.create () in
  per_call (fun n ->
      for _ = 1 to n do
        Ebr.enter e;
        Ebr.exit e
      done)

let patomic_load () =
  let p = Patomic.make (region ()) 0 in
  per_call (fun n ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Patomic.load p))
      done)

let patomic_cas () =
  let p = Patomic.make (region ()) 0 and k = ref 0 in
  per_call (fun n ->
      for _ = 1 to n do
        let v = !k in
        ignore (Sys.opaque_identity (Patomic.cas p ~expected:v ~desired:(v + 1)));
        k := v + 1
      done)

(** Minor-heap words one successful [Patomic.cas] allocates. *)
let patomic_cas_minor_words () =
  let p = Patomic.make (region ()) 0 in
  let n = 100_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    ignore (Sys.opaque_identity (Patomic.cas p ~expected:(i - 1) ~desired:i))
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* One successful CAS per timed call.  The variable is replaced (untimed)
   every 16 CASes: a buffered slot's persisted history grows by one entry
   per epoch it is persisted in, so a single long-lived variable would
   time that history instead of the CAS.  Every strategy gets the same
   treatment so the rungs stay comparable. *)
let prim_cas name =
  let (module P : Prim.S) = Prim.by_name (region ~epoch_len:256 ()) name in
  let p = ref (P.make 0) and k = ref 0 in
  per_timed_call (fun ~n ~time ->
      for i = 1 to n do
        if i land 15 = 0 then begin
          p := P.make 0;
          k := 0
        end;
        let v = !k in
        time (fun () ->
            ignore (Sys.opaque_identity (P.cas !p ~expected:v ~desired:(v + 1))));
        k := v + 1
      done)

let prim_load name =
  let (module P : Prim.S) = Prim.by_name (region ()) name in
  let p = P.make 0 in
  per_call (fun n ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (P.load p))
      done)

(* Records into an epoch that never fills by itself; an untimed advance
   drains it every 256 records. *)
let region_record_deferred () =
  let r = region ~epoch_len:(1 lsl 40) () in
  let flush () = () in
  per_timed_call (fun ~n ~time ->
      for i = 1 to n do
        time (fun () -> Region.record_deferred r ~uid:i ~ver:i ~flush);
        if i land 255 = 0 then Region.help_advance r
      done)

(** µs per advance of an epoch holding [records] dirty buffered slots.
    Each advance gets fresh slots, for the reason given at {!prim_cas}. *)
let region_help_advance ~records =
  let run rounds =
    let r = region ~epoch_len:(1 lsl 40) () in
    let overhead = Lazy.force Clock.overhead_ns in
    let sum = ref 0 in
    for i = 1 to rounds do
      Array.iter
        (fun s ->
          Slot.store s i;
          Slot.persist_deferred s)
        (Array.init records (fun _ -> Slot.make ~buffered:true r 0));
      let t0 = Clock.now () in
      Region.help_advance r;
      sum := !sum + (Clock.now () - t0)
    done;
    ((float_of_int !sum /. float_of_int rounds) -. overhead) /. 1e3
  in
  ignore (run 20);
  median (Array.init batches (fun _ -> run 100))

(** Every ladder rung, by per-layer metric name. *)
let run () =
  [
    ("atomic.get_ns", atomic_get ());
    ("atomic.cas_ns", atomic_cas ());
    ("hooks.yield_ns", hooks_yield ());
    ("stats.get_ns", stats_get ());
    ("slot.load_ns", slot_load ());
    ("slot.store_ns", slot_store ());
    ("slot.cas_pred_ns", slot_cas_pred ());
    ("slot.flush_ns", slot_flush ());
    ("region.fence_ns", region_fence ());
    ("region.record_deferred_ns", region_record_deferred ());
    ("region.help_advance_us", region_help_advance ~records:256);
    ("ebr.enter_exit_ns", ebr_enter_exit ());
    ("patomic.load_ns", patomic_load ());
    ("patomic.cas_ns", patomic_cas ());
    ("patomic.cas_minor_words", patomic_cas_minor_words ());
    ("prim.orig-dram.cas_ns", prim_cas "orig-dram");
    ("prim.mirror.cas_ns", prim_cas "mirror");
    ("prim.buffered.cas_ns", prim_cas "buffered");
    ("prim.mirror.load_ns", prim_load "mirror");
  ]
