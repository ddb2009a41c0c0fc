(** Hash tables on int keys.

    Monomorphic equality and an inline mixing hash: a lookup neither calls
    the polymorphic hash nor boxes its key. The hash folds the high bits of
    a key down before multiplying, so keys that pack two fields into
    separate bit ranges (a link's source and destination, a caller and its
    request id) spread over every bucket. *)

include Hashtbl.S with type key = int
