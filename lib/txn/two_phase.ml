open Avdb_net

type decision = Commit | Abort

let pp_decision ppf = function
  | Commit -> Format.pp_print_string ppf "commit"
  | Abort -> Format.pp_print_string ppf "abort"

type vote = Ready | Refuse

let pp_vote ppf = function
  | Ready -> Format.pp_print_string ppf "ready"
  | Refuse -> Format.pp_print_string ppf "refuse"

module Coordinator = struct
  type phase =
    | Init
    | Collecting_votes
    | Collecting_acks of decision
    | Done of decision

  type action =
    | Broadcast_prepare
    | Broadcast_decision of decision
    | Completed of decision
    | Cleanup of decision

  (* Votes and acks are flags over the participant array, one byte per
     participant, counted as they are first set. A repeated address
     counts once: [needed] is the number of distinct participants, and
     an address always finds its first slot. *)
  type t = {
    txid : int;
    participants : Address.t array;
    needed : int;
    flags : Bytes.t;
    base : Address.t;
    mutable phase : phase;
    mutable votes : int;  (* Ready votes received *)
    mutable acks : int;
    mutable completed_emitted : bool;
  }

  let voted = 1
  let acked = 2

  let rec slot participants a i =
    if i = Array.length participants then -1
    else if Address.equal participants.(i) a then i
    else slot participants a (i + 1)

  (* The participants from slot [i] on that no earlier slot repeats. *)
  let rec distinct participants i =
    if i = Array.length participants then 0
    else
      Bool.to_int (slot participants participants.(i) 0 = i) + distinct participants (i + 1)

  let make ~txid ~participants ~base phase ~completed_emitted =
    let participants = Array.of_list participants in
    {
      txid;
      participants;
      needed = distinct participants 0;
      flags = Bytes.make (Array.length participants) '\000';
      base;
      phase;
      votes = 0;
      acks = 0;
      completed_emitted;
    }

  let create ~txid ~participants ~base =
    make ~txid ~participants ~base Init ~completed_emitted:false

  let txid t = t.txid
  let no_participants t = Array.length t.participants = 0

  (* Sets [flag] on [from]'s slot: true when [from] is a participant whose
     flag was clear. *)
  let mark t ~from flag =
    match slot t.participants from 0 with
    | -1 -> false
    | i ->
        let f = Bytes.get_uint8 t.flags i in
        if f land flag <> 0 then false
        else begin
          Bytes.set_uint8 t.flags i (f lor flag);
          true
        end

  (* Completion is user-visible when the base acknowledges the decision.
     When the base is not a remote participant, the coordinator itself is
     the base: completion happens at decision time. *)
  let base_is_remote t = slot t.participants t.base 0 >= 0

  let decide t d =
    if no_participants t then begin
      t.phase <- Done d;
      let completed = if t.completed_emitted then [] else [ Completed d ] in
      t.completed_emitted <- true;
      completed @ [ Cleanup d ]
    end
    else begin
      t.phase <- Collecting_acks d;
      let completed =
        if base_is_remote t || t.completed_emitted then []
        else begin
          t.completed_emitted <- true;
          [ Completed d ]
        end
      in
      (Broadcast_decision d :: completed)
    end

  let start t ~local_vote =
    match t.phase with
    | Init ->
        if local_vote = Refuse then decide t Abort
        else if no_participants t then decide t Commit
        else begin
          t.phase <- Collecting_votes;
          [ Broadcast_prepare ]
        end
    | Collecting_votes | Collecting_acks _ | Done _ ->
        invalid_arg "Two_phase.Coordinator.start: already started"

  let on_vote t ~from v =
    match t.phase with
    | Collecting_votes -> (
        match v with
        | Refuse -> if slot t.participants from 0 >= 0 then decide t Abort else []
        | Ready ->
            if mark t ~from voted then begin
              t.votes <- t.votes + 1;
              if t.votes = t.needed then decide t Commit else []
            end
            else [])
    | Init | Collecting_acks _ | Done _ -> []

  let finish t d =
    t.phase <- Done d;
    let completed = if t.completed_emitted then [] else [ Completed d ] in
    t.completed_emitted <- true;
    completed @ [ Cleanup d ]

  let on_ack t ~from =
    match t.phase with
    | Collecting_acks d when mark t ~from acked ->
        t.acks <- t.acks + 1;
        let completed =
          if Address.equal from t.base && not t.completed_emitted then begin
            t.completed_emitted <- true;
            [ Completed d ]
          end
          else []
        in
        if t.acks = t.needed then completed @ finish t d else completed
    | Init | Collecting_votes | Collecting_acks _ | Done _ -> []

  let on_ack_timeout t =
    match t.phase with
    | Collecting_acks d -> finish t d
    | Init | Collecting_votes | Done _ -> []

  (* A coordinator rebuilt from its durable log after a crash: the
     decision is known, nothing about acks is (acks are not logged), so
     restart the ack round from scratch. [Completed] must never fire —
     the submitting client died with the old incarnation. *)
  let recovered ~txid ~participants ~base decision =
    make ~txid ~participants ~base
      (if participants = [] then Done decision else Collecting_acks decision)
      ~completed_emitted:true

  let rebroadcast t =
    match t.phase with
    | Collecting_acks d -> [ Broadcast_decision d ]
    | Init | Collecting_votes | Done _ -> []

  let decision t =
    match t.phase with
    | Collecting_acks d | Done d -> Some d
    | Init | Collecting_votes -> None

  let is_done t = match t.phase with Done _ -> true | _ -> false
end
