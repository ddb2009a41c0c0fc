(** The allowable-volume management table (AV table).

    The table holds, per data item, the volume this site may subtract from
    the item's numeric datum without talking to anyone (§3.2 of the paper).
    AV is defined on regular products only: an item with {e no} AV entry
    is a non-regular product, whose updates must go through Immediate
    Update (the checking function distinguishes the two by exactly this
    lookup). A site defines its AV when it is created; no entry is ever
    removed, so whether an item has AV never changes.

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

(** {2 Entries}

    An entry is one item's AV, found once. Entries are never removed, so
    an entry, once found, is the item's for the life of the table. The
    named {!hold}, {!consume} and {!mint} look the entry up and call the
    entry form of the same name, so both move the same volumes and fail
    with the same errors; the other moves exist only as entry forms. *)

type entry

val no_entry : entry
(** A shared placeholder that is no item's entry: what an item without
    AV gets. Every entry form refuses it as the named form refuses an
    undefined item, and {!entry_available} reads 0 on it. *)

val entry_or_no_entry : t -> item:string -> entry
(** The item's entry, or {!no_entry} when it has no AV. A site's item
    record takes it once, when the record is built. *)

val entry_item : entry -> string
(** The item the entry is for; [""] on {!no_entry}. *)

val entry_available : entry -> int

val entry_hold : entry -> int -> (unit, string) result
(** Moves volume from available to held. Fails on {!no_entry} or
    insufficient available volume. *)

val entry_hold_all : entry -> int
(** Holds everything available (possibly 0); returns the amount newly
    held. Used when local AV is short and the site is about to ask peers
    ("the accelerator holds all the AV at the site"). 0 on {!no_entry}. *)

val entry_release : entry -> int -> (unit, string) result
(** Moves volume back from held to available (transaction gave up). *)

val entry_consume : entry -> int -> (unit, string) result
(** Destroys held volume — the negative update committed. *)

val entry_deposit : entry -> int -> (unit, string) result
(** Adds available volume {e transferred} from a peer (a grant received).
    For volume created by a positive local update use {!entry_mint},
    which also feeds the conservation ledger. *)

val entry_mint : entry -> int -> (unit, string) result
(** Adds {e newly created} available volume (a positive local update) and
    records it in the conservation ledger. *)

val entry_withdraw : entry -> int -> (unit, string) result
(** Removes available volume to grant it to a peer. *)

val available : t -> item:string -> int
(** Volume free to hold or grant away. 0 for undefined items. *)

val held : t -> item:string -> int
val total : t -> item:string -> int
(** [available + held]. *)

val hold : t -> item:string -> int -> (unit, string) result
(** {!entry_hold} on the item's entry; an undefined item fails. *)

val consume : t -> item:string -> int -> (unit, string) result
(** {!entry_consume} on the item's entry. *)

val mint : t -> item:string -> int -> (unit, string) result
(** {!entry_mint} on the item's entry. *)

val release_all : t -> unit
(** Returns every held volume on every item to available — crash recovery
    abandons the in-flight transactions that held them. *)

(** {2 Conservation ledger}

    Per-item process-lifetime counters:
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

val snapshot : t -> (string * int * int) list
(** [(item, available, held)] sorted by item — for conservation checks. *)
