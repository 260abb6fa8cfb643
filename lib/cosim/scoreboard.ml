module Bitvec = Dfv_bitvec.Bitvec

type policy = Exact_cycle | In_order | Out_of_order

type mismatch = {
  at_cycle : int;
  expected : Bitvec.t option;
  observed : Bitvec.t;
  tag : Bitvec.t option;
}

type report = {
  matched : int;
  mismatches : mismatch list;
  unconsumed : int;
  latencies : int list;
}

type expectation = { e_cycle : int; e_value : Bitvec.t; e_tag : Bitvec.t option }

type t = {
  policy : policy;
  pending : expectation Queue.t;  (* In_order / Exact_cycle *)
  by_tag : (string, expectation Queue.t) Hashtbl.t;  (* Out_of_order *)
  mutable matched : int;
  mutable mismatches : mismatch list;
  mutable latencies : int list;
}

let m_matches = Dfv_obs.Metrics.counter "cosim.scoreboard.matches"
let m_mismatches = Dfv_obs.Metrics.counter "cosim.scoreboard.mismatches"

let create policy =
  {
    policy;
    pending = Queue.create ();
    by_tag = Hashtbl.create 16;
    matched = 0;
    mismatches = [];
    latencies = [];
  }

let tag_key tag = Bitvec.to_string tag

let expect ?tag t ~cycle value =
  let e = { e_cycle = cycle; e_value = value; e_tag = tag } in
  match t.policy with
  | Exact_cycle | In_order -> Queue.push e t.pending
  | Out_of_order -> (
    match tag with
    | None -> invalid_arg "Scoreboard.expect: Out_of_order requires a tag"
    | Some tag ->
      let key = tag_key tag in
      let q =
        match Hashtbl.find_opt t.by_tag key with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.add t.by_tag key q;
          q
      in
      Queue.push e q)

let record_match t e ~cycle =
  t.matched <- t.matched + 1;
  Dfv_obs.Metrics.incr m_matches;
  t.latencies <- (cycle - e.e_cycle) :: t.latencies

let record_mismatch t ~cycle ~expected ~observed ~tag =
  Dfv_obs.Metrics.incr m_mismatches;
  Dfv_obs.Trace.instant ~cat:"cosim"
    ~args:
      [ ("cycle", Dfv_obs.Json.Int cycle);
        ("observed", Dfv_obs.Json.String (Bitvec.to_string observed));
        ( "expected",
          match expected with
          | Some e -> Dfv_obs.Json.String (Bitvec.to_string e)
          | None -> Dfv_obs.Json.Null ) ]
    "cosim.mismatch";
  t.mismatches <- { at_cycle = cycle; expected; observed; tag } :: t.mismatches

let observe ?tag t ~cycle value =
  match t.policy with
  | Exact_cycle -> (
    match Queue.peek_opt t.pending with
    | Some e when e.e_cycle = cycle && Bitvec.equal e.e_value value ->
      ignore (Queue.pop t.pending);
      record_match t e ~cycle
    | Some e ->
      (* Either the value differs or the cycle is off: both are
         mismatches under the exact-cycle discipline. *)
      ignore (Queue.pop t.pending);
      record_mismatch t ~cycle ~expected:(Some e.e_value) ~observed:value ~tag
    | None -> record_mismatch t ~cycle ~expected:None ~observed:value ~tag)
  | In_order -> (
    match Queue.pop t.pending with
    | e ->
      if Bitvec.equal e.e_value value then record_match t e ~cycle
      else record_mismatch t ~cycle ~expected:(Some e.e_value) ~observed:value ~tag
    | exception Queue.Empty ->
      record_mismatch t ~cycle ~expected:None ~observed:value ~tag)
  | Out_of_order -> (
    match tag with
    | None -> invalid_arg "Scoreboard.observe: Out_of_order requires a tag"
    | Some tg -> (
      let q = Hashtbl.find_opt t.by_tag (tag_key tg) in
      let popped =
        match q with
        | Some q when not (Queue.is_empty q) -> Some (Queue.pop q)
        | Some _ | None -> None
      in
      match popped with
      | Some e ->
        if Bitvec.equal e.e_value value then record_match t e ~cycle
        else
          record_mismatch t ~cycle ~expected:(Some e.e_value) ~observed:value
            ~tag
      | None -> record_mismatch t ~cycle ~expected:None ~observed:value ~tag))

let report t =
  let unconsumed =
    Queue.length t.pending
    + Hashtbl.fold (fun _ q acc -> acc + Queue.length q) t.by_tag 0
  in
  {
    matched = t.matched;
    mismatches = List.rev t.mismatches;
    unconsumed;
    latencies = List.rev t.latencies;
  }

let ok (r : report) = r.mismatches = [] && r.unconsumed = 0
