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

  type t = {
    txid : int;
    participants : Address.Set.t;
    base : Address.t;
    mutable phase : phase;
    mutable votes : Address.Set.t;  (* Ready votes received *)
    mutable acks : Address.Set.t;
    mutable local_vote : vote;
    mutable completed_emitted : bool;
  }

  let create ~txid ~participants ~base =
    {
      txid;
      participants = Address.Set.of_list participants;
      base;
      phase = Init;
      votes = Address.Set.empty;
      acks = Address.Set.empty;
      local_vote = Ready;
      completed_emitted = false;
    }

  let txid t = t.txid

  (* Completion is user-visible when the base acknowledges the decision.
     When the base is not a remote participant, the coordinator itself is
     the base: completion happens at decision time. *)
  let base_is_remote t = Address.Set.mem t.base t.participants

  let decide t d =
    if Address.Set.is_empty t.participants then begin
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
        t.local_vote <- local_vote;
        if local_vote = Refuse then decide t Abort
        else if Address.Set.is_empty t.participants then decide t Commit
        else begin
          t.phase <- Collecting_votes;
          [ Broadcast_prepare ]
        end
    | Collecting_votes | Collecting_acks _ | Done _ ->
        invalid_arg "Two_phase.Coordinator.start: already started"

  let on_vote t ~from v =
    match t.phase with
    | Collecting_votes when Address.Set.mem from t.participants -> (
        match v with
        | Refuse -> decide t Abort
        | Ready ->
            t.votes <- Address.Set.add from t.votes;
            if Address.Set.equal t.votes t.participants then decide t Commit else [])
    | Init | Collecting_votes | Collecting_acks _ | Done _ -> []

  let finish t d =
    t.phase <- Done d;
    let completed = if t.completed_emitted then [] else [ Completed d ] in
    t.completed_emitted <- true;
    completed @ [ Cleanup d ]

  let on_ack t ~from =
    match t.phase with
    | Collecting_acks d when Address.Set.mem from t.participants ->
        t.acks <- Address.Set.add from t.acks;
        let completed =
          if Address.equal from t.base && not t.completed_emitted then begin
            t.completed_emitted <- true;
            [ Completed d ]
          end
          else []
        in
        if Address.Set.equal t.acks t.participants then completed @ finish t d
        else completed
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
    {
      txid;
      participants = Address.Set.of_list participants;
      base;
      phase =
        (if participants = [] then Done decision else Collecting_acks decision);
      votes = Address.Set.empty;
      acks = Address.Set.empty;
      local_vote = Ready;
      completed_emitted = true;
    }

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

module Participant = struct
  type action = Apply | Revert | Ignore

  type t = { prepared : (int, unit) Hashtbl.t }

  let create () = { prepared = Hashtbl.create 16 }

  let on_prepare t ~txid ~can_apply =
    if Hashtbl.mem t.prepared txid then Ready
    else if can_apply then begin
      Hashtbl.add t.prepared txid ();
      Ready
    end
    else Refuse

  let on_decision t ~txid d =
    if not (Hashtbl.mem t.prepared txid) then Ignore
    else begin
      Hashtbl.remove t.prepared txid;
      match d with Commit -> Apply | Abort -> Revert
    end

  let pending t =
    Hashtbl.fold (fun txid () acc -> txid :: acc) t.prepared [] |> List.sort compare

  let forget t ~txid = Hashtbl.remove t.prepared txid

  let reset t = Hashtbl.reset t.prepared
end
