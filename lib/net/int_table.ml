include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x =
    let h = (x lxor (x lsr 32)) * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 29)) land max_int
end)
