type experiment = {
  id : string;
  title : string;
  run : quick:bool -> jobs:int -> Common.result;
}

let all =
  [ { id = "e1"; title = "Figure 3 row 1: f-AME at C = t+1"; run = Fig3.e1 };
    { id = "e2"; title = "Figure 3 row 2: f-AME at C = 2t"; run = Fig3.e2 };
    { id = "e3"; title = "Figure 3 row 3: f-AME at C = 2t^2 (tree feedback)"; run = Fig3.e3 };
    { id = "e4"; title = "Theorem 4: greedy-removal in O(|E|) moves"; run = Game_exp.e4 };
    { id = "e5"; title = "Lemma 5: communication-feedback agreement"; run = Feedback_exp.e5 };
    { id = "e6"; title = "Theorems 2+6: optimal t-disruptability"; run = Disruption_exp.e6 };
    { id = "e7"; title = "Theorem 2: spoofing the naive protocol"; run = Spoof_exp.e7 };
    { id = "e8"; title = "Section 6: shared group key"; run = Groupkey_exp.e8 };
    { id = "e9"; title = "Section 7: long-lived secure channel"; run = Channel_exp.e9 };
    { id = "e10"; title = "Gossip baseline [13] vs f-AME"; run = Gossip_exp.e10 };
    { id = "e11"; title = "Section 5.6: constant message size"; run = Size_exp.e11 };
    { id = "e12"; title = "Ablation: surrogates on/off"; run = Disruption_exp.e12 };
    { id = "e13";
      title = "Section 8: corrupted surrogates (Byzantine sketch)";
      run = Byzantine_exp.e13 };
    { id = "e14"; title = "Section 8: concurrent pairwise channels"; run = Unicast_exp.e14 };
    { id = "e15"; title = "Related work: energy-bounded adversary"; run = Energy_exp.e15 };
    { id = "e16";
      title = "whp claims over many seeds + transcript audit";
      run = Robustness_exp.e16 };
    { id = "e17";
      title = "Section 8: secrets vs a t-channel eavesdropper";
      run = Secrecy_exp.e17 } ]

let find id = List.find_opt (fun e -> e.id = id) all

let ids = List.map (fun e -> e.id) all
