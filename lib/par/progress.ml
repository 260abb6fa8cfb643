type t = {
  total : int;
  label : string;
  deadline_at : float option;
  t_start : float;
  mutable done_ : int;
  tallies : (string, int ref) Hashtbl.t;
  mutable tally_order : string list; (* first-seen order *)
  mutable last_render : float;
  mutable width : int; (* widest line printed, for clean overwrite *)
}

let create ?(force = false) ?deadline_at ~label ~total () =
  if total <= 0 then None
  else if not (force || Unix.isatty Unix.stderr) then None
  else
    Some
      {
        total;
        label;
        deadline_at;
        t_start = Unix.gettimeofday ();
        done_ = 0;
        tallies = Hashtbl.create 8;
        tally_order = [];
        last_render = 0.0;
        width = 0;
      }

let fmt_eta secs =
  if secs < 0.0 then "--"
  else if secs < 100.0 then Printf.sprintf "%.0fs" secs
  else if secs < 6000.0 then Printf.sprintf "%.1fm" (secs /. 60.0)
  else Printf.sprintf "%.1fh" (secs /. 3600.0)

let render t ~final =
  let now = Unix.gettimeofday () in
  (* Throttle to ~10 redraws/s; the final line always lands. *)
  if final || now -. t.last_render >= 0.1 then begin
    t.last_render <- now;
    let elapsed = now -. t.t_start in
    (* Zero-elapsed (first render lands within clock resolution) and
       zero-done both yield no meaningful rate; show 0.0/s and "ETA --"
       rather than dividing into inf/nan or a billion-hour ETA. *)
    let rate = if elapsed > 0.0 then float_of_int t.done_ /. elapsed else 0.0 in
    let eta =
      if t.done_ >= t.total then ""
      else if t.done_ = 0 || rate <= 0.0 then " ETA --"
      else
        Printf.sprintf " ETA %s"
          (fmt_eta (float_of_int (t.total - t.done_) /. rate))
    in
    let deadline =
      match t.deadline_at with
      | Some d when not final ->
        Printf.sprintf " deadline %s" (fmt_eta (d -. now))
      | _ -> ""
    in
    let tallies =
      List.fold_left
        (fun acc k ->
          acc ^ Printf.sprintf " %s:%d" k !(Hashtbl.find t.tallies k))
        ""
        t.tally_order
    in
    let body =
      Printf.sprintf "\r%s %d/%d (%.0f%%) %.1f/s%s%s%s" t.label t.done_
        t.total
        (100.0 *. float_of_int t.done_ /. float_of_int t.total)
        rate eta deadline tallies
    in
    let pad = max 0 (t.width - String.length body) in
    t.width <- max t.width (String.length body);
    prerr_string (body ^ String.make pad ' ');
    if final then prerr_newline () else flush stderr
  end

let step t category =
  t.done_ <- t.done_ + 1;
  (match Hashtbl.find_opt t.tallies category with
  | Some r -> Stdlib.incr r
  | None ->
    Hashtbl.add t.tallies category (ref 1);
    t.tally_order <- t.tally_order @ [ category ]);
  render t ~final:false

let finish t = render t ~final:true
