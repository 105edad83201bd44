(* Paranoid kernel: delegate everything to the packed-int {!Dbm_int},
   and under a sampling period k re-run every k-th scratch pipeline on
   the reference kernel, comparing every observable answer.  The zones
   this kernel produces are Dbm_int.t values untouched by the checking,
   so exploration behaviour (and zones.stored) is identical to the int
   engine unless a mismatch aborts the run. *)

module Metrics = Tm_obs.Metrics
module Paranoid = Tm_recover.Paranoid

let c_selfcheck = Metrics.counter "recover.selfcheck_total"
let c_mismatch = Metrics.counter "recover.selfcheck_mismatch"

type t = Dbm_int.t

let name = "int+selfcheck"

(* Full-width: {!Reach} drives this kernel with the full-width clock
   maps of {!Dbm_ref}, so both halves of a checked pipeline see the
   same ops, and the zones are the cylinders the reference engine
   stores. *)
let compact = false
let headroom = Dbm_int.headroom
let dim = Dbm_int.dim
let zero = Dbm_int.zero
let is_empty = Dbm_int.is_empty
let get = Dbm_int.get
let sat = Dbm_int.sat

type lu = Dbm_int.lu * Dbm_ref.lu

let prepare_lu ~invs ~lower ~upper =
  ( Dbm_int.prepare_lu ~invs ~lower ~upper,
    Dbm_ref.prepare_lu ~invs ~lower ~upper )

let loose = Dbm_int.loose
let equal = Dbm_int.equal
let hash = Dbm_int.hash

(* Zones are Dbm_int.t values, so arena and minimal-constraint storage
   delegate wholesale — the self-check happens at freeze time, before
   a zone enters either. *)
module Arena = Dbm_int.Arena

let copy_into = Dbm_int.copy_into

module Min = Dbm_int.Min

let mismatch fmt =
  Format.kasprintf
    (fun m ->
      Metrics.incr c_mismatch;
      raise (Paranoid.Mismatch m))
    fmt

(* Rebuild an int zone on the reference kernel from its public bounds.
   The source is canonical, so adding its constraints to [top] one by
   one reproduces the same matrix. *)
let ref_of_int z =
  let n = Dbm_int.dim z in
  let r = ref (Dbm_ref.top n) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        match Dbm_int.get z i j with
        | Dbm_bound.Inf -> ()
        | b -> r := Dbm_ref.constrain !r i j b
    done
  done;
  !r

(* Test hook: derange a frozen zone into a legitimately different zone
   using only the kernel's own scratch ops, so the entry-by-entry
   comparison below must notice.  Tightening clock 1 against the
   reference clock changes any zone that admits more than a point of
   clock 1 (and empties point zones, which the emptiness comparison
   catches); a zone without clock 1 is emptied, and an empty zone is
   replaced by [zero]. *)
let corrupt z =
  let n = Dbm_int.dim z in
  if Dbm_int.is_empty z then Dbm_int.zero n
  else begin
    let s = Dbm_int.Scratch.create n in
    Dbm_int.Scratch.load s z;
    let open Dbm_bound in
    let tighter = function
      | Inf -> Le Tm_base.Rational.zero
      | Le c -> Lt c
      | Lt c -> Lt (Tm_base.Rational.sub c Tm_base.Rational.one)
    in
    if n < 2 then Dbm_int.Scratch.constrain s 0 0 (Lt Tm_base.Rational.zero)
    else Dbm_int.Scratch.constrain s 1 0 (tighter (Dbm_int.get z 1 0));
    Dbm_int.Scratch.freeze_into (Dbm_int.Arena.create ()) s
  end

module Scratch = struct
  type scratch = {
    intk : Dbm_int.Scratch.scratch;
    refk : Dbm_ref.Scratch.scratch;
    mutable loads : int;  (** pipelines seen by this arena *)
    mutable checking : bool;  (** current pipeline is being mirrored *)
  }

  let create n =
    {
      intk = Dbm_int.Scratch.create n;
      refk = Dbm_ref.Scratch.create n;
      loads = 0;
      checking = false;
    }

  let load s z =
    Dbm_int.Scratch.load s.intk z;
    let k = Paranoid.every () in
    s.loads <- s.loads + 1;
    s.checking <- k > 0 && s.loads mod k = 0;
    if s.checking then begin
      Metrics.incr c_selfcheck;
      Dbm_ref.Scratch.load s.refk (ref_of_int z)
    end

  let constrain s i j b =
    Dbm_int.Scratch.constrain s.intk i j b;
    if s.checking then Dbm_ref.Scratch.constrain s.refk i j b

  let remap s r =
    Dbm_int.Scratch.remap s.intk r;
    if s.checking then Dbm_ref.Scratch.remap s.refk r

  let settle (li, lr) s =
    Dbm_int.Scratch.settle li s.intk;
    if s.checking then Dbm_ref.Scratch.settle lr s.refk

  let is_empty s =
    let ia = Dbm_int.Scratch.is_empty s.intk in
    if s.checking then begin
      let ra = Dbm_ref.Scratch.is_empty s.refk in
      if ia <> ra then
        mismatch "selfcheck: emptiness disagrees mid-pipeline (int=%b, ref=%b)"
          ia ra
    end;
    ia

  let sat s i j b =
    let ia = Dbm_int.Scratch.sat s.intk i j b in
    if s.checking then begin
      let ra = Dbm_ref.Scratch.sat s.refk i j b in
      if ia <> ra then
        mismatch "selfcheck: sat(%d,%d) disagrees (int=%b, ref=%b)" i j ia ra
    end;
    ia

  (* Cross-kernel comparison of a frozen int zone against the mirror
     pipeline. *)
  let check_frozen s zi =
    if not s.checking then zi
    else begin
      let zi = if Paranoid.corrupt () then corrupt zi else zi in
      let zr =
        Dbm_ref.Scratch.freeze_into (Dbm_ref.Arena.create ()) s.refk
      in
      let ie = Dbm_int.is_empty zi and re = Dbm_ref.is_empty zr in
      if ie <> re then
        mismatch "selfcheck: frozen emptiness disagrees (int=%b, ref=%b)" ie
          re;
      if not ie then begin
        let n = Dbm_int.dim zi in
        if n <> Dbm_ref.dim zr then
          mismatch "selfcheck: frozen dimension disagrees (int=%d, ref=%d)" n
            (Dbm_ref.dim zr);
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            let bi = Dbm_int.get zi i j and br = Dbm_ref.get zr i j in
            if Dbm_bound.compare bi br <> 0 then
              mismatch
                "selfcheck: frozen zone disagrees at (%d,%d): int %a, ref %a"
                i j Dbm_bound.pp bi Dbm_bound.pp br
          done
        done
      end;
      zi
    end

  let freeze_into ?hash a s =
    check_frozen s (Dbm_int.Scratch.freeze_into ?hash a s.intk)

  let hash s = Dbm_int.Scratch.hash s.intk
  let equal_zone s z = Dbm_int.Scratch.equal_zone s.intk z
end
