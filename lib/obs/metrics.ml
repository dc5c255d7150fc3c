module H = Sdb_util.Histogram

type labels = (string * string) list

type counter = { c_value : int Atomic.t }
type gauge = { g_mutex : Mutex.t; mutable g_value : float }
(* A summary keeps count, sum, min and max over every observation and
   its quantiles over the most recent [window] ones: a ring that grows
   on demand up to [window], so a long-lived server's series stay
   bounded, and a rarely observed one stays small. *)
let window = 4096

(* All floats, so stored unboxed: an observation allocates nothing. *)
type totals = { mutable sum : float; mutable lo : float; mutable hi : float }

type histogram = {
  h_mutex : Mutex.t;
  mutable recent : float array;  (* ring; full once it holds [window] *)
  mutable next : int;  (* slot the next observation takes *)
  mutable count : int;
  totals : totals;
}

type data =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type series = { labels : labels; data : data }

(* One family per metric name; all its series share the kind. *)
type family = {
  f_name : string;
  mutable f_help : string;
  f_kind : string; (* "counter" | "gauge" | "summary" *)
  mutable f_series : series list;
}

let enabled = Atomic.make true
let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled

let registry : (string, family) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let locked f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let canonical labels = List.sort compare labels

let kind_of_data = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "summary"

(* Find-or-create a series; the fresh thunk runs only under the lock. *)
let intern name ~help ~labels ~kind fresh =
  let labels = canonical labels in
  locked (fun () ->
      let family =
        match Hashtbl.find_opt registry name with
        | Some f ->
          if not (String.equal f.f_kind kind) then
            invalid_arg
              (Printf.sprintf "Metrics: %s is a %s, requested as %s" name f.f_kind
                 kind);
          if f.f_help = "" && help <> "" then f.f_help <- help;
          f
        | None ->
          let f = { f_name = name; f_help = help; f_kind = kind; f_series = [] } in
          Hashtbl.add registry name f;
          f
      in
      match List.find_opt (fun s -> s.labels = labels) family.f_series with
      | Some s -> s.data
      | None ->
        let data = fresh () in
        assert (String.equal (kind_of_data data) kind);
        family.f_series <- family.f_series @ [ { labels; data } ];
        data)

let counter ?(help = "") ?(labels = []) name =
  match
    intern name ~help ~labels ~kind:"counter" (fun () ->
        Counter { c_value = Atomic.make 0 })
  with
  | Counter c -> c
  | _ -> assert false

let gauge ?(help = "") ?(labels = []) name =
  match
    intern name ~help ~labels ~kind:"gauge" (fun () ->
        Gauge { g_mutex = Mutex.create (); g_value = 0.0 })
  with
  | Gauge g -> g
  | _ -> assert false

let histogram ?(help = "") ?(labels = []) name =
  match
    intern name ~help ~labels ~kind:"summary" (fun () ->
        Histogram
          {
            h_mutex = Mutex.create ();
            recent = [||];
            next = 0;
            count = 0;
            totals = { sum = 0.0; lo = 0.0; hi = 0.0 };
          })
  with
  | Histogram h -> h
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)

let add c n =
  if n < 0 then invalid_arg "Metrics.add: counters are monotone";
  if Atomic.get enabled then ignore (Atomic.fetch_and_add c.c_value n : int)

let incr c = add c 1

let set_gauge g v =
  if Atomic.get enabled then begin
    Mutex.lock g.g_mutex;
    g.g_value <- v;
    Mutex.unlock g.g_mutex
  end

let record h v =
  let cap = Array.length h.recent in
  if h.next = cap && cap < window then begin
    let bigger = Array.make (min window (max 64 (2 * cap))) 0.0 in
    Array.blit h.recent 0 bigger 0 cap;
    h.recent <- bigger
  end;
  if h.next = Array.length h.recent then h.next <- 0;
  h.recent.(h.next) <- v;
  h.next <- h.next + 1;
  let t = h.totals in
  if h.count = 0 then begin
    t.lo <- v;
    t.hi <- v
  end
  else begin
    if Float.compare v t.lo < 0 then t.lo <- v;
    if Float.compare v t.hi > 0 then t.hi <- v
  end;
  h.count <- h.count + 1;
  t.sum <- t.sum +. v

let observe h v =
  if Atomic.get enabled then begin
    Mutex.lock h.h_mutex;
    record h v;
    Mutex.unlock h.h_mutex
  end

let time h f =
  if Atomic.get enabled then begin
    let t0 = Unix.gettimeofday () in
    (* Clamped: the wall clock can step backward (NTP) mid-measurement,
       and a negative duration would corrupt the histogram. *)
    Fun.protect
      ~finally:(fun () -> observe h (Float.max 0.0 (Unix.gettimeofday () -. t0)))
      f
  end
  else f ()

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)

let counter_value c = Atomic.get c.c_value

let gauge_value g =
  Mutex.lock g.g_mutex;
  let v = g.g_value in
  Mutex.unlock g.g_mutex;
  v

(* The retained observations, appended to [dst]; must hold [h.h_mutex]. *)
let add_recent dst h =
  for i = 0 to min h.count (Array.length h.recent) - 1 do
    H.record dst h.recent.(i)
  done

(* Quantiles from the retained samples, the rest from the cumulative
   fields.  Until the window first fills, that is exactly the snapshot
   of a histogram holding every observation. *)
let summarize ~count ~sum ~lo ~hi recent =
  if count = 0 then H.empty_snapshot
  else
    let s = H.snapshot recent in
    {
      s with
      H.s_count = count;
      s_total = sum;
      s_mean = sum /. float_of_int count;
      s_min = lo;
      s_max = hi;
    }

let histogram_snapshot h =
  Mutex.lock h.h_mutex;
  let recent = H.create () in
  add_recent recent h;
  let count = h.count and { sum; lo; hi } = h.totals in
  Mutex.unlock h.h_mutex;
  summarize ~count ~sum ~lo ~hi recent

(* Registry-wide summary reads.  Lock order matches render: the
   registry mutex first, then each series' h_mutex inside. *)

let summaries () =
  locked (fun () ->
      Hashtbl.fold
        (fun _ f acc ->
          List.fold_left
            (fun acc s ->
              match s.data with
              | Histogram h -> (f.f_name, s.labels, histogram_snapshot h) :: acc
              | Counter _ | Gauge _ -> acc)
            acc f.f_series)
        registry []
      |> List.sort compare)

let merged_summary name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | None -> H.empty_snapshot
      | Some f ->
        let merged = H.create () in
        let count = ref 0 and sum = ref 0.0 in
        let lo = ref Float.infinity and hi = ref Float.neg_infinity in
        List.iter
          (fun s ->
            match s.data with
            | Histogram h ->
              Mutex.lock h.h_mutex;
              add_recent merged h;
              if h.count > 0 then begin
                let t = h.totals in
                count := !count + h.count;
                sum := !sum +. t.sum;
                if Float.compare t.lo !lo < 0 then lo := t.lo;
                if Float.compare t.hi !hi > 0 then hi := t.hi
              end;
              Mutex.unlock h.h_mutex
            | Counter _ | Gauge _ -> ())
          f.f_series;
        summarize ~count:!count ~sum:!sum ~lo:!lo ~hi:!hi merged)

(* ------------------------------------------------------------------ *)
(* Exposition                                                          *)

let escape_label_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let format_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> k ^ "=\"" ^ escape_label_value v ^ "\"") labels)
    ^ "}"

let fmt_float v =
  (* Shortest representation that round-trips; avoids "3.0000000001". *)
  let s = Printf.sprintf "%.12g" v in
  s

let render_series buf family { labels; data } =
  let line ?(suffix = "") ?(extra = []) value =
    Buffer.add_string buf
      (Printf.sprintf "%s%s%s %s\n" family.f_name suffix
         (format_labels (labels @ extra))
         value)
  in
  match data with
  | Counter c -> line (string_of_int (counter_value c))
  | Gauge g -> line (fmt_float (gauge_value g))
  | Histogram h ->
    let s = histogram_snapshot h in
    let q name v = line ~extra:[ ("quantile", name) ] (fmt_float v) in
    q "0.5" s.H.s_p50;
    q "0.9" s.H.s_p90;
    q "0.99" s.H.s_p99;
    q "0.999" s.H.s_p999;
    line ~suffix:"_sum" (fmt_float s.H.s_total);
    line ~suffix:"_count" (string_of_int s.H.s_count);
    line ~suffix:"_min" (fmt_float s.H.s_min);
    line ~suffix:"_max" (fmt_float s.H.s_max)

(* Collectors pull values from subsystems that don't push on every
   event (e.g. the concurrency sanitizer); they run before each render,
   outside the registry lock, because they call counter/gauge/set_gauge
   themselves. *)
let collectors : (string, unit -> unit) Hashtbl.t = Hashtbl.create 8
let collectors_mutex = Mutex.create ()

let register_collector ~name f =
  Mutex.lock collectors_mutex;
  Hashtbl.replace collectors name f;
  Mutex.unlock collectors_mutex

let run_collectors () =
  Mutex.lock collectors_mutex;
  let fs = Hashtbl.fold (fun _ f acc -> f :: acc) collectors [] in
  Mutex.unlock collectors_mutex;
  List.iter (fun f -> f ()) fs

let render () =
  run_collectors ();
  locked (fun () ->
      let families =
        Hashtbl.fold (fun _ f acc -> f :: acc) registry []
        |> List.sort (fun a b -> compare a.f_name b.f_name)
      in
      let buf = Buffer.create 4096 in
      List.iter
        (fun f ->
          if f.f_help <> "" then
            Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" f.f_name f.f_help);
          Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" f.f_name f.f_kind);
          List.iter (render_series buf f)
            (List.sort (fun a b -> compare a.labels b.labels) f.f_series))
        families;
      Buffer.contents buf)

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ f ->
          List.iter
            (fun s ->
              match s.data with
              | Counter c -> Atomic.set c.c_value 0
              | Gauge g ->
                Mutex.lock g.g_mutex;
                g.g_value <- 0.0;
                Mutex.unlock g.g_mutex
              | Histogram h ->
                Mutex.lock h.h_mutex;
                h.next <- 0;
                h.count <- 0;
                h.totals.sum <- 0.0;
                h.totals.lo <- 0.0;
                h.totals.hi <- 0.0;
                Mutex.unlock h.h_mutex)
            f.f_series)
        registry)
