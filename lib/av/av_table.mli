(** management table (AV table).

    The table holds, per data item, the volume this site may subtract from
    the item's numeric datum without talking to anyone (§3.2 of the paper).
    An item with {e no} AV entry is a non-regular product: updates to it
    must go through Immediate Update (the checking function distinguishes
    the two by exactly this lookup).

    Volumes are split into [available] and [held]: a Delay Update first
    {e holds} the volume it needs (or all it has, while it asks other sites
    for more), then consumes the hold on commit or releases it on abort.
    The paper notes AV need not be locked exclusively for the whole
    transaction — rollback is the opposite delta — which is why holds are
    plain integers rather than locks: concurrent transactions can each hold
    part of the remaining AV. *)

type t

val create : unit -> t

val define : t -> item:string -> volume:int -> unit
(** Defines AV on an item with an initial volume. Raises
    [Invalid_argument] if already defined or [volume < 0]. *)

val undefine : t -> item:string -> unit
(** Removes the AV entry — the item becomes non-regular. *)

val is_defined : t -> item:string -> bool
(** The checking function's test: defined ⇒ Delay Update. *)

val definitions : t -> int
(** How many times an entry was defined or undefined (by {!define},
    {!undefine} or {!decode}). A caller that keeps an {!entry}, or keeps
    the fact that an item has none, resolves it again when this moves. *)

(** {2 Entries}

    An entry is one item's AV, found once: the entry forms below are the
    bodies of the named operations of the same name, which look the entry
    up and call them, so both move the same volumes and fail with the same
    errors. {!undefine} kills the entry: every entry form then fails as the
    named form fails on an undefined item, and a later {!define} of the
    item makes a new entry, which {!definitions} announces. *)

type entry

val entry : t -> item:string -> entry
(** Raises [Not_found] when the item has no AV. *)

val no_entry : entry
(** A shared placeholder that is no item's entry: a holder keeps it for an
    item without AV. Every entry form refuses it as it refuses a dead
    entry, and {!entry_available} reads 0 on it. *)

val entry_or_no_entry : t -> item:string -> entry
(** {!entry}, or {!no_entry} when the item has no AV: what a holder of an
    item's entry takes again once {!definitions} has moved. *)

val entry_available : entry -> int
val entry_hold : entry -> int -> (unit, string) result
val entry_consume : entry -> int -> (unit, string) result
val entry_mint : entry -> int -> (unit, string) result

val available : t -> item:string -> int
(** Volume free to hold or grant away. 0 for undefined items. *)

val held : t -> item:string -> int
val total : t -> item:string -> int
(** [available + held]. *)

val hold : t -> item:string -> int -> (unit, string) result
(** Moves volume from available to held. Fails if not defined or
    insufficient available volume. *)

val hold_all : t -> item:string -> int
(** Holds everything available (possibly 0); returns the amount newly
    held. Used when local AV is short and the site is about to ask peers
    ("the accelerator holds all the AV at the site"). 0 for undefined. *)

val release : t -> item:string -> int -> (unit, string) result
(** Moves volume back from held to available (transaction gave up). *)

val consume : t -> item:string -> int -> (unit, string) result
(** Destroys held volume — the negative update committed. *)

val deposit : t -> item:string -> int -> (unit, string) result
(** Adds available volume {e transferred} from a peer (a grant received).
    Fails on undefined items. For volume created by a positive local
    update use {!mint}, which also feeds the conservation ledger. *)

val mint : t -> item:string -> int -> (unit, string) result
(** Adds {e newly created} available volume (a positive local update) and
    records it in the conservation ledger. *)

val withdraw : t -> item:string -> int -> (unit, string) result
(** Removes available volume to grant it to a peer. *)

val release_all : t -> unit
(** Returns every held volume on every item to available — crash recovery
    abandons the in-flight transactions that held them. *)

(** {2 Conservation ledger}

    Per-item process-lifetime counters (never serialised):
    [total = defined_volume + minted - consumed] holds at this site in the
    absence of transfers; summed across all sites it holds at quiescence
    whatever transfers occurred — unless a fault genuinely destroyed
    in-flight volume, which is exactly what conservation checks detect. *)

val defined_volume : t -> item:string -> int
(** Volume given to {!define} (0 for undefined items). *)

val minted : t -> item:string -> int
(** Cumulative volume created by {!mint}. *)

val consumed : t -> item:string -> int
(** Cumulative volume destroyed by {!consume}. *)

val items : t -> string list
(** Items with AV defined, sorted. *)

val sum_total : t -> int
(** Σ over items of [total] — used by conservation checks. *)

val snapshot : t -> (string * int * int) list
(** [(item, available, held)] sorted by item — for durability layers and
    conservation checks. *)

val encode : t -> string
(** Single-string serialisation (one line per item). In-flight holds are
    serialised as holds; a restoring site should [release] them, mirroring
    how a restart abandons the transactions that held them. *)

val decode : string -> (t, string) result

val pp : Format.formatter -> t -> unit
