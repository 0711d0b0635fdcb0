(** The two set forms of a registry-recovered durable set core (Link-Free
    and SOFT, Zuriel et al.): the core's list itself, and a hash table of
    such lists, one per bucket, sharing one EBR domain. *)

module type CORE = sig
  type 'v t

  val create :
    ?track:bool -> ?ebr:Mirror_core.Ebr.t -> Mirror_nvm.Region.t -> 'v t

  val contains : 'v t -> int -> bool
  val find_opt : 'v t -> int -> 'v option
  val insert : 'v t -> int -> 'v -> bool
  val remove : 'v t -> int -> bool
  val to_list : 'v t -> (int * 'v) list
  val recover : 'v t -> unit
end

module type CONFIG = sig
  val region : Mirror_nvm.Region.t
  val track : bool  (** [false] skips the recovery registry (benchmarks) *)
end

(** [F.family] names the algorithm: the forms are ["list/" ^ family] and
    ["hash/" ^ family]. *)
module Make
    (Core : CORE)
    (F : sig
      val family : string
    end) =
struct
  module List_set (C : CONFIG) : Mirror_dstruct.Sets.SET = struct
    type t = int Core.t

    let name = "list/" ^ F.family
    let create ?capacity () = ignore capacity; Core.create ~track:C.track C.region
    let insert = Core.insert
    let remove = Core.remove
    let contains = Core.contains
    let find_opt = Core.find_opt
    let to_list = Core.to_list
    let recover = Core.recover
  end

  module Hash_set (C : CONFIG) : Mirror_dstruct.Sets.SET = struct
    type t = { buckets : int Core.t array; mask : int }

    let name = "hash/" ^ F.family

    let rec next_pow2 n acc = if acc >= n then acc else next_pow2 n (acc * 2)

    let create ?(capacity = 1024) () =
      let n = next_pow2 (max 2 capacity) 2 in
      let ebr = Mirror_core.Ebr.create () in
      {
        buckets = Array.init n (fun _ -> Core.create ~track:C.track ~ebr C.region);
        mask = n - 1;
      }

    let bucket t k = t.buckets.((k * 0x2545F4914F6CDD1D) lsr 16 land t.mask)
    let insert t k v = Core.insert (bucket t k) k v
    let remove t k = Core.remove (bucket t k) k
    let contains t k = Core.contains (bucket t k) k
    let find_opt t k = Core.find_opt (bucket t k) k

    let to_list t =
      Array.to_list t.buckets
      |> List.concat_map Core.to_list
      |> List.sort (fun (a, _) (b, _) -> compare a b)

    let recover t = Array.iter Core.recover t.buckets
  end
end
