(** Harris's lock-free linked list (DISC 2001) as a functor over the
    persistence primitive: instantiating with {!Mirror_prim.Prim.Mirror_dram}
    yields the paper's durable list, with the other strategies its
    competitors — the data-structure code is identical, which is the
    paper's headline property. *)

module Make (P : Mirror_prim.Prim.S) : sig
  type 'v t

  val create : ?ebr:Mirror_core.Ebr.t -> unit -> 'v t
  (** [ebr] shares a reclamation domain across lists (the hash table passes
      one per table). *)

  val contains : 'v t -> int -> bool
  (** Wait-free: traverses without unlinking. *)

  val find_opt : 'v t -> int -> 'v option
  val insert : 'v t -> int -> 'v -> bool
  val remove : 'v t -> int -> bool

  val to_list : 'v t -> (int * 'v) list
  (** Quiesced inspection, sorted by key, skipping logically deleted
      nodes. *)

  val size : 'v t -> int


  val fold : ('a -> int -> 'v -> 'a) -> 'a -> 'v t -> 'a
  (** Weakly consistent live iteration (like a Java CHM iterator): sees
      every element present for the whole traversal, may or may not see
      concurrent updates. *)

  val iter : (int -> 'v -> unit) -> 'v t -> unit

  val range : 'v t -> lo:int -> hi:int -> (int * 'v) list
  (** Entries with [lo <= key < hi], ascending; weakly consistent. *)

  val recover : 'v t -> unit
  (** The paper's tracing routine: restore every reachable field's volatile
      replica from persistent space (no-op for non-Mirror primitives). *)

  (** {1 Bare heads}

      The same operations over a bare root field and an explicit
      reclamation domain, for containers of many lists: the hash table
      keeps its bucket heads inline in one array with one shared
      {!Mirror_core.Ebr.t}, and an operation allocates no list view.  The
      heads share one [Nil] birth too: every head, and every node [next]
      inserted at a list's tail, starts on it. *)

  type 'v head

  type 'v nil
  (** The birth of every field born [Nil] ({!Mirror_prim.Prim.S.birth}). *)

  val nil : unit -> 'v nil
  val make_head : 'v nil -> 'v head
  val contains_at : Mirror_core.Ebr.t -> 'v head -> int -> bool
  val find_opt_at : Mirror_core.Ebr.t -> 'v head -> int -> 'v option

  val insert_at : Mirror_core.Ebr.t -> 'v nil -> 'v head -> int -> 'v -> bool
  (** A node inserted at the tail makes its [next] from [nil], the birth
      the container made its heads from. *)

  val remove_at : Mirror_core.Ebr.t -> 'v head -> int -> bool
  val to_list_at : 'v head -> (int * 'v) list
  val recover_at : 'v head -> unit
end
