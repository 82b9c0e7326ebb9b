(* Reference values for the output checks, printed by
   [fbbbench.exe record] at pool width 2. Leakage in nW, yield in %. *)

let ilp_optima : (string * float) list =
  [
    ("c1355/b5/C2", 122.08726737800205);
    ("c1355/b5/C3", 115.76168820100106);
    ("c1355/b10/C2", 198.6080280242372);
    ("c1355/b10/C3", 181.49762558892743);
    ("c3540/b5/C2", 213.78088962902234);
    ("c3540/b5/C3", 204.58019197763548);
    ("c3540/b10/C2", 349.40618489651604);
    ("c5315/b5/C2", 314.6361553741973);
  ]

(* die seed -> (clustered yield %, clustered mean leakage nW) *)
let mc : (int * (float * float)) list =
  [
    (1, (87.5, 8999.4390101663976));
    (2, (96.875, 9248.0459383330071));
    (3, (90.625, 9327.0449831020505));
    (4, (87.5, 8068.5413267476551));
  ]

(* fbbd request kind -> proved-optimal leakage nW *)
let serve_optima : (string * float) list =
  [
    ("gen:11:300:6/b0.05/C2", 101.01270708208664);
    ("gen:12:400:6/b0.06/C2", 154.32985388003937);
  ]
