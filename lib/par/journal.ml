module Json = Dfv_obs.Json
module Metrics = Dfv_obs.Metrics

let schema = "dfv-journal"
let version = 1
let m_appends = Metrics.counter "journal.appends"
let m_replayed = Metrics.counter "journal.replayed"

(* FNV-1a over 64 bits.  Not cryptographic — the keys are canonical
   configuration strings from our own code, and a campaign holds at
   most a few hundred jobs; what matters is that the value is a pure
   function of the key, stable across runs and processes. *)
let fingerprint s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

type t = {
  fd : Unix.file_descr;
  path : string;
  campaign : string;
  results : (string, Json.t) Hashtbl.t;
  replayed : int;
  replayed_entries : (string * Json.t) list;
  torn : bool;
  dropped : int;
}

let campaign t = t.campaign
let find t fp = Hashtbl.find_opt t.results fp
let replayed t = t.replayed
let replayed_entries t = t.replayed_entries
let torn t = t.torn
let dropped t = t.dropped

(* --- records ------------------------------------------------------------ *)

let header_line campaign =
  Json.to_string
    (Json.envelope ~schema ~version
       [ ("kind", Json.String "header"); ("campaign", Json.String campaign) ])
  ^ "\n"

let result_line fp payload =
  Json.to_string
    (Json.envelope ~schema ~version
       [ ("kind", Json.String "result");
         ("fp", Json.String fp);
         ("payload", payload) ])
  ^ "\n"

type record = Header of string | Result of string * Json.t

(* A parsed line must still be a well-formed record: the envelope (with
   this schema and version — a version we did not write is rejected, not
   guessed at) and the per-kind fields. *)
let validate v =
  match Json.envelope_of v with
  | None -> Error "missing {schema, version} envelope"
  | Some (s, ver) when s <> schema || ver <> version ->
    Error (Printf.sprintf "not a %s v%d record (%s v%d)" schema version s ver)
  | Some _ -> (
    match Json.field "kind" v with
    | Some (Json.String "header") -> (
      match Json.field "campaign" v with
      | Some (Json.String c) -> Ok (Header c)
      | _ -> Error "header without campaign fingerprint")
    | Some (Json.String "result") -> (
      match (Json.field "fp" v, Json.field "payload" v) with
      | Some (Json.String fp), Some payload -> Ok (Result (fp, payload))
      | _ -> Error "result without fp/payload")
    | _ -> Error "unknown record kind")

type loaded = {
  l_campaign : string;
  l_results : (string * Json.t) list;  (** first occurrence wins, in order *)
  l_dropped : int;
  l_torn : bool;
  l_keep : int;  (** bytes up to the end of the last intact record *)
}

(* Split [contents] into newline-terminated segments, tracking whether
   the final one is terminated and where each starts (for torn-tail
   truncation). *)
let segments contents =
  let n = String.length contents in
  let rec go start acc =
    if start >= n then List.rev acc
    else
      match String.index_from_opt contents start '\n' with
      | Some i ->
        go (i + 1) ((start, String.sub contents start (i - start), true) :: acc)
      | None -> List.rev ((start, String.sub contents start (n - start), false) :: acc)
  in
  go 0 []

let parse_contents contents =
  match segments contents with
  | [] -> Error "empty journal"
  | (_, first, terminated) :: rest -> (
    let header =
      if not terminated then Error "torn header (journal creation died mid-write)"
      else
        match Json.parse first with
        | Error m -> Error ("unparseable header: " ^ m)
        | Ok v -> (
          match validate v with
          | Ok (Header c) -> Ok c
          | Ok (Result _) -> Error "first record is not the header"
          | Error m -> Error ("bad header: " ^ m))
    in
    match header with
    | Error m -> Error m
    | Ok l_campaign ->
      let seen = Hashtbl.create 64 in
      let rec go segs results dropped =
        match segs with
        | [] ->
          Ok
            {
              l_campaign;
              l_results = List.rev results;
              l_dropped = dropped;
              l_torn = false;
              l_keep = String.length contents;
            }
        | (start, line, terminated) :: tail -> (
          let last = tail = [] in
          match Json.parse line with
          | Error m ->
            (* Only a single unparseable (or unterminated) final segment
               can come from one torn write; anything else is external
               corruption and is rejected. *)
            if last then
              Ok
                {
                  l_campaign;
                  l_results = List.rev results;
                  l_dropped = dropped;
                  l_torn = true;
                  l_keep = start;
                }
            else Error ("corrupt journal: unparseable interior line: " ^ m)
          | Ok _ when last && not terminated ->
            Ok
              {
                l_campaign;
                l_results = List.rev results;
                l_dropped = dropped;
                l_torn = true;
                l_keep = start;
              }
          | Ok v -> (
            (* A complete, parseable line that fails validation is not a
               torn write — reject it even at the tail (this is where a
               version-mismatch record lands). *)
            match validate v with
            | Error m -> Error ("corrupt journal: " ^ m)
            | Ok (Header _) -> Error "corrupt journal: duplicate header"
            | Ok (Result (fp, payload)) ->
              if Hashtbl.mem seen fp then go tail results (dropped + 1)
              else begin
                Hashtbl.add seen fp ();
                go tail ((fp, payload) :: results) dropped
              end))
      in
      go rest [] 0)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

type info = {
  info_campaign : string;
  info_records : (string * Json.t) list;
  info_dropped : int;
  info_torn : bool;
}

let inspect path =
  match parse_contents (read_file path) with
  | Error _ as e -> e
  | Ok l ->
    Ok
      {
        info_campaign = l.l_campaign;
        info_records = l.l_results;
        info_dropped = l.l_dropped;
        info_torn = l.l_torn;
      }

(* --- writing ------------------------------------------------------------ *)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  try go 0
  with Unix.Unix_error (e, _, _) ->
    raise (Sys_error ("journal write failed: " ^ Unix.error_message e))

let fsync fd =
  try Unix.fsync fd
  with Unix.Unix_error (e, _, _) ->
    raise (Sys_error ("journal fsync failed: " ^ Unix.error_message e))

let open_ ~path ~campaign:key =
  Dfv_obs.Trace.with_span ~cat:"par" "journal.open" @@ fun () ->
  let campaign = fingerprint key in
  if Sys.file_exists path then
    match parse_contents (read_file path) with
    | Error _ as e -> e
    | Ok l ->
      if l.l_campaign <> campaign then
        Error
          (Printf.sprintf
             "campaign mismatch: journal %s was written by a run fingerprinted \
              %s, this run is %s"
             path l.l_campaign campaign)
      else begin
        let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
        (* Truncate the torn tail so appends start on a record boundary. *)
        Unix.ftruncate fd l.l_keep;
        ignore (Unix.lseek fd 0 Unix.SEEK_END);
        let results = Hashtbl.create 64 in
        List.iter (fun (fp, p) -> Hashtbl.replace results fp p) l.l_results;
        let replayed = List.length l.l_results in
        Metrics.add m_replayed replayed;
        Ok
          {
            fd;
            path;
            campaign;
            results;
            replayed;
            replayed_entries = l.l_results;
            torn = l.l_torn;
            dropped = l.l_dropped;
          }
      end
  else begin
    let fd =
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644
    in
    write_all fd (header_line campaign);
    fsync fd;
    Ok
      {
        fd;
        path;
        campaign;
        results = Hashtbl.create 64;
        replayed = 0;
        replayed_entries = [];
        torn = false;
        dropped = 0;
      }
  end

let append t ~fp payload =
  if not (Hashtbl.mem t.results fp) then begin
    write_all t.fd (result_line fp payload);
    fsync t.fd;
    Hashtbl.replace t.results fp payload;
    Metrics.incr m_appends
  end

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
