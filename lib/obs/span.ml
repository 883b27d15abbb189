type t = {
  cat : string;
  name : string;
  t0_ns : int64;
  dur_ns : int64;
  domain : int;
  task : int;
  flow : int;
  flow_n : int;
}

let on = Atomic.make false
let enable () = Atomic.set on true
let disable () = Atomic.set on false
let enabled () = Atomic.get on

(* One span buffer per domain, registered globally on first use. The
   registry mutex is taken once per domain lifetime (registration) and
   on drain/reset — never per span. *)
type buffer = { mutable spans : t list; mutable task : int }

let registry : buffer list ref = ref []
let registry_m = Mutex.create ()

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b = { spans = []; task = -1 } in
      Mutex.lock registry_m;
      registry := b :: !registry;
      Mutex.unlock registry_m;
      b)

let buffer () = Domain.DLS.get buffer_key

let set_task i = (buffer ()).task <- i
let clear_task () = (buffer ()).task <- -1

let record ?(flow = -1) ?(flow_n = 0) ~cat ~name ~t0_ns () =
  let b = buffer () in
  let dur_ns = Int64.sub (Mclock.now_ns ()) t0_ns in
  let dur_ns = if Int64.compare dur_ns 0L < 0 then 0L else dur_ns in
  let span =
    {
      cat;
      name;
      t0_ns;
      dur_ns;
      domain = (Domain.self () :> int);
      task = b.task;
      flow;
      flow_n;
    }
  in
  b.spans <- span :: b.spans

let with_ ~cat ?flow ?flow_n name f =
  if not (Atomic.get on) then f ()
  else begin
    let t0_ns = Mclock.now_ns () in
    Fun.protect ~finally:(fun () -> record ?flow ?flow_n ~cat ~name ~t0_ns ()) f
  end

let emit ~cat ~name ~t0_ns ~dur_ns ?(flow = -1) ?(flow_n = 0) () =
  if Atomic.get on then begin
    let b = buffer () in
    let span =
      {
        cat;
        name;
        t0_ns;
        dur_ns = (if Int64.compare dur_ns 0L < 0 then 0L else dur_ns);
        domain = (Domain.self () :> int);
        task = b.task;
        flow;
        flow_n;
      }
    in
    b.spans <- span :: b.spans
  end

let drain () =
  Mutex.lock registry_m;
  let spans =
    List.concat_map
      (fun b ->
        let s = b.spans in
        b.spans <- [];
        s)
      !registry
  in
  Mutex.unlock registry_m;
  List.sort
    (fun a b ->
      match Int64.compare a.t0_ns b.t0_ns with
      | 0 -> compare (a.domain, a.name) (b.domain, b.name)
      | c -> c)
    spans

let reset () =
  Mutex.lock registry_m;
  List.iter (fun b -> b.spans <- []) !registry;
  Mutex.unlock registry_m

let tally pairs =
  let rec sum = function
    | (c, a) :: (c', b) :: rest when String.equal c c' -> sum ((c, a + b) :: rest)
    | pair :: rest -> pair :: sum rest
    | [] -> []
  in
  sum (List.stable_sort (fun (a, _) (b, _) -> String.compare a b) pairs)

let stage_us spans =
  tally (List.map (fun s -> (s.cat, Mclock.ns_to_us s.dur_ns)) spans)
