(** Fixed-capacity circular FIFO queue with random access by age.

    Pipeline structures (fetch queues, reorder buffers, load/store queues)
    are bounded in-order queues that also need oldest-to-youngest scans;
    this ring provides exactly that. Elements are stored directly, so a
    push writes one word; an empty slot holds the filler given to
    [create] (like [Array.make]'s), which keeps removed elements from
    being retained. *)

type 'a t

(** [create capacity filler] raises [Invalid_argument] when
    [capacity <= 0]. *)
val create : int -> 'a -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool
val is_full : 'a t -> bool

(** Append at the tail; raises [Failure] when full. *)
val push : 'a t -> 'a -> unit

(** Append at the tail; when full, overwrites the oldest element instead
    of failing (event-log semantics). Returns [true] iff an element was
    overwritten. *)
val push_overwrite : 'a t -> 'a -> bool

(** Remove and return the oldest element; raises [Failure] when empty. *)
val pop : 'a t -> 'a

(** The physical slot, in [0, capacity), that the next [push] fills.
    An element keeps its slot until it is removed, so the slot names it
    while it is in the ring. *)
val tail_slot : 'a t -> int

(** [slot_of t i] is the physical slot of the element [i] places from
    the oldest; raises [Invalid_argument] out of range. *)
val slot_of : 'a t -> int -> int

(** [get t i] is the element [i] places from the oldest (0 = oldest);
    raises [Invalid_argument] out of range. *)
val get : 'a t -> int -> 'a

val set : 'a t -> int -> 'a -> unit

(** Remove the [n] youngest elements (pipeline annulment). *)
val drop_youngest : 'a t -> int -> unit

val clear : 'a t -> unit

val iter : 'a t -> ('a -> unit) -> unit
val fold : 'a t -> 'b -> ('b -> 'a -> 'b) -> 'b

val to_list : 'a t -> 'a list
