type 'a t = {
  fifo_name : string;
  cap : int;
  items : 'a Queue.t;
  written_ev : Kernel.event;
  read_ev : Kernel.event;
  depth_gauge : Dfv_obs.Metrics.gauge;
}

(* Occupancy distribution across every FIFO, sampled after each
   successful write; the per-FIFO gauge additionally tracks the
   high-water mark of each individual channel. *)
let m_depth = Dfv_obs.Metrics.histogram "slm.fifo.depth"

let create k name ~capacity =
  if capacity < 1 then invalid_arg "Fifo.create: capacity must be >= 1";
  {
    fifo_name = name;
    cap = capacity;
    items = Queue.create ();
    written_ev = Kernel.event k (name ^ ".written");
    read_ev = Kernel.event k (name ^ ".read");
    depth_gauge = Dfv_obs.Metrics.gauge ("slm.fifo." ^ name ^ ".depth");
  }

let length f = Queue.length f.items
let capacity f = f.cap
let name f = f.fifo_name

let try_write f v =
  if Queue.length f.items >= f.cap then false
  else begin
    Queue.push v f.items;
    let depth = Queue.length f.items in
    Dfv_obs.Metrics.set_gauge f.depth_gauge depth;
    Dfv_obs.Metrics.observe m_depth depth;
    Kernel.notify f.written_ev;
    true
  end

let try_read f =
  match Queue.pop f.items with
  | v ->
    Dfv_obs.Metrics.set_gauge f.depth_gauge (Queue.length f.items);
    Kernel.notify f.read_ev;
    Some v
  | exception Queue.Empty -> None

let rec write f v =
  if try_write f v then ()
  else begin
    Kernel.wait_event f.read_ev;
    write f v
  end

let rec read f =
  match try_read f with
  | Some v -> v
  | None ->
    Kernel.wait_event f.written_ev;
    read f
