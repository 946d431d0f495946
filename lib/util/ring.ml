(** Fixed-capacity circular FIFO queue with random access by age.

    Pipeline structures (fetch queues, reorder buffers, load/store queues)
    are all bounded in-order queues that also need to be scanned from oldest
    to youngest; this ring provides exactly that. Slots hold the elements
    themselves; an empty slot holds the [filler] given to [create], so a
    push stores one word and a removed element is not kept alive. *)

type 'a t = {
  slots : 'a array;
  filler : 'a;
  mutable head : int;  (* index of the oldest element *)
  mutable count : int;
}

let create capacity filler =
  if capacity <= 0 then invalid_arg "Ring.create";
  { slots = Array.make capacity filler; filler; head = 0; count = 0 }

let length t = t.count
let is_empty t = t.count = 0
let is_full t = t.count = Array.length t.slots

(* Physical slot of [i] in [0, 2 * capacity): one compare, no [mod]. *)
let[@inline] wrap t i =
  let cap = Array.length t.slots in
  if i >= cap then i - cap else i

let tail_slot t = wrap t (t.head + t.count)

let slot_of t i =
  if i < 0 || i >= t.count then invalid_arg "Ring.slot_of";
  wrap t (t.head + i)

(** Append at the tail. Raises [Failure] when full. *)
let push t v =
  if is_full t then failwith "Ring.push: full";
  Array.unsafe_set t.slots (wrap t (t.head + t.count)) v;
  t.count <- t.count + 1

(** Append at the tail; when full, overwrite (drop) the oldest element.
    This is the bounded-event-log discipline of the paper's §2.3 ring
    buffer: the window always holds the most recent [capacity] entries.
    Returns [true] when an old element was overwritten. *)
let push_overwrite t v =
  if is_full t then begin
    t.slots.(t.head) <- v;
    t.head <- wrap t (t.head + 1);
    true
  end
  else begin
    t.slots.(wrap t (t.head + t.count)) <- v;
    t.count <- t.count + 1;
    false
  end

(** Remove and return the oldest element. Raises [Failure] when empty. *)
let pop t =
  if is_empty t then failwith "Ring.pop: empty";
  let v = t.slots.(t.head) in
  t.slots.(t.head) <- t.filler;
  t.head <- wrap t (t.head + 1);
  t.count <- t.count - 1;
  v

(** [get t i] is the element [i] places from the oldest (0 = oldest). *)
let get t i =
  if i < 0 || i >= t.count then invalid_arg "Ring.get";
  Array.unsafe_get t.slots (wrap t (t.head + i))

let set t i v =
  if i < 0 || i >= t.count then invalid_arg "Ring.set";
  t.slots.(wrap t (t.head + i)) <- v

(** Remove the [n] youngest elements (used for pipeline annulment). *)
let drop_youngest t n =
  if n < 0 || n > t.count then invalid_arg "Ring.drop_youngest";
  for i = t.count - n to t.count - 1 do
    t.slots.(wrap t (t.head + i)) <- t.filler
  done;
  t.count <- t.count - n

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) t.filler;
  t.head <- 0;
  t.count <- 0

(** Iterate oldest-to-youngest. *)
let iter t f =
  for i = 0 to t.count - 1 do
    f (Array.unsafe_get t.slots (wrap t (t.head + i)))
  done

let fold t init f =
  let acc = ref init in
  iter t (fun v -> acc := f !acc v);
  !acc

let to_list t = List.rev (fold t [] (fun acc v -> v :: acc))
