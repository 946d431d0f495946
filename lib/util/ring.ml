(** Fixed-capacity circular FIFO queue with random access by age.

    Pipeline structures (fetch queues, reorder buffers, load/store queues)
    are all bounded in-order queues that also need to be scanned from oldest
    to youngest; this ring provides exactly that. Slots hold ['a option]
    internally so [create] needs no dummy element. *)

type 'a t = {
  slots : 'a option array;
  mutable head : int;  (* index of the oldest element *)
  mutable count : int;
}

let create capacity =
  if capacity <= 0 then invalid_arg "Ring.create";
  { slots = Array.make capacity None; head = 0; count = 0 }

let length t = t.count
let is_empty t = t.count = 0
let is_full t = t.count = Array.length t.slots

(** Append at the tail. Raises [Failure] when full. *)
let push t v =
  if is_full t then failwith "Ring.push: full";
  let idx = (t.head + t.count) mod Array.length t.slots in
  t.slots.(idx) <- Some v;
  t.count <- t.count + 1

(** Append at the tail; when full, overwrite (drop) the oldest element.
    This is the bounded-event-log discipline of the paper's §2.3 ring
    buffer: the window always holds the most recent [capacity] entries.
    Returns [true] when an old element was overwritten. *)
let push_overwrite t v =
  let cap = Array.length t.slots in
  if t.count = cap then begin
    t.slots.(t.head) <- Some v;
    t.head <- (t.head + 1) mod cap;
    true
  end
  else begin
    t.slots.((t.head + t.count) mod cap) <- Some v;
    t.count <- t.count + 1;
    false
  end

(** Remove and return the oldest element. Raises [Failure] when empty. *)
let pop t =
  if is_empty t then failwith "Ring.pop: empty";
  match t.slots.(t.head) with
  | None -> assert false
  | Some v ->
    t.slots.(t.head) <- None;
    t.head <- (t.head + 1) mod Array.length t.slots;
    t.count <- t.count - 1;
    v

let peek t =
  if is_empty t then None
  else t.slots.(t.head)

(** [get t i] is the element [i] places from the oldest (0 = oldest). *)
let get t i =
  if i < 0 || i >= t.count then invalid_arg "Ring.get";
  match t.slots.((t.head + i) mod Array.length t.slots) with
  | None -> assert false
  | Some v -> v

let set t i v =
  if i < 0 || i >= t.count then invalid_arg "Ring.set";
  t.slots.((t.head + i) mod Array.length t.slots) <- Some v

(** Remove the [n] youngest elements (used for pipeline annulment). *)
let drop_youngest t n =
  if n < 0 || n > t.count then invalid_arg "Ring.drop_youngest";
  for i = t.count - n to t.count - 1 do
    t.slots.((t.head + i) mod Array.length t.slots) <- None
  done;
  t.count <- t.count - n

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) None;
  t.head <- 0;
  t.count <- 0

(** Iterate oldest-to-youngest. *)
let iteri t f =
  for i = 0 to t.count - 1 do
    f i (get t i)
  done

let iter t f = iteri t (fun _ v -> f v)

let fold t init f =
  let acc = ref init in
  iter t (fun v -> acc := f !acc v);
  !acc

let to_list t = List.rev (fold t [] (fun acc v -> v :: acc))
