type t = { rules : string list; first_line : int; last_line : int }

let marker = "lint: allow"

(* Textual scan, not a lexer pass: comments never reach the typed
   trees the rules read, and a textual scan covers .mli files too.  To avoid
   tripping on prose that merely *mentions* the marker (rule
   rationales, doc comments, this very module), a marker only counts
   when it sits directly after a comment opener: "(*" (or "(**"),
   optional whitespace, then the marker. *)

let find_sub ~start haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    if i + nl > hl then None
    else if String.sub haystack i nl = needle then Some i
    else go (i + 1)
  in
  go start

(* Does position [p] in [line] sit directly after a comment opener?
   Walk back over whitespace, then over the opener's '*'s, then
   require '('. *)
let after_comment_opener line p =
  let i = ref (p - 1) in
  while !i >= 0 && (line.[!i] = ' ' || line.[!i] = '\t') do
    decr i
  done;
  let stars = ref 0 in
  while !i >= 0 && line.[!i] = '*' do
    incr stars;
    decr i
  done;
  !stars >= 1 && !i >= 0 && line.[!i] = '('

let is_rule_id tok =
  String.length tok >= 2
  && (match tok.[0] with 'A' .. 'Z' -> true | _ -> false)
  && String.for_all
       (function 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
       tok

(* Split the text after the marker into leading rule ids and the
   remainder.  Ids are separated by commas and/or spaces. *)
let parse_clause text =
  let n = String.length text in
  let rec skip_sep i =
    if i < n && (text.[i] = ' ' || text.[i] = ',' || text.[i] = '\t') then
      skip_sep (i + 1)
    else i
  in
  let token_end i =
    let rec go j =
      if j < n && (match text.[j] with 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
      then go (j + 1)
      else j
    in
    go i
  in
  let rec ids acc i =
    let i = skip_sep i in
    let j = token_end i in
    let tok = String.sub text i (j - i) in
    if j > i && is_rule_id tok then ids (tok :: acc) j else (List.rev acc, i)
  in
  ids [] 0

(* After the rule ids we demand a separator (em dash, hyphen(s) or
   colon) followed by a non-empty justification. *)
let has_reason text i =
  let n = String.length text in
  let i = ref i in
  while !i < n && (text.[!i] = ' ' || text.[!i] = '\t') do
    incr i
  done;
  let em_dash = "\xe2\x80\x94" in
  let sep_len =
    if !i + 3 <= n && String.sub text !i 3 = em_dash then 3
    else if !i < n && (text.[!i] = '-' || text.[!i] = ':') then begin
      (* swallow runs of hyphens ("--") *)
      let j = ref !i in
      while !j < n && text.[!j] = '-' do
        incr j
      done;
      if !j = !i then 1 else !j - !i
    end
    else 0
  in
  if sep_len = 0 then false
  else begin
    let rest = String.sub text (!i + sep_len) (n - !i - sep_len) in
    (* Trim the comment close and whitespace; anything left is the
       justification. *)
    let rest =
      match find_sub ~start:0 rest "*)" with
      | Some k -> String.sub rest 0 k
      | None -> rest
    in
    String.trim rest <> ""
  end

(* The coverage block below a suppression ends where the *next*
   top-level-ish item starts: a line at the same (or lesser)
   indentation as the covered site's first line that begins with a
   binding keyword.  Deeper-indented lines and closing delimiters
   continue the block, so a multi-line binding needs one marker. *)

let indent_of line =
  let n = String.length line in
  let rec go i = if i < n && (line.[i] = ' ' || line.[i] = '\t') then go (i + 1) else i in
  go 0

let binding_keywords =
  [
    "let"; "and"; "type"; "module"; "exception"; "external"; "open";
    "include"; "val"; "class";
  ]

let starts_binding line =
  let line = String.trim line in
  let n = String.length line in
  let word_end =
    let rec go i =
      if i < n && (match line.[i] with 'a' .. 'z' -> true | _ -> false) then
        go (i + 1)
      else i
    in
    go 0
  in
  List.mem (String.sub line 0 word_end) binding_keywords

let scan ~file contents =
  let lines = String.split_on_char '\n' contents in
  let arr = Array.of_list lines in
  let n = Array.length arr in
  let supps = ref [] and malformed = ref [] in
  Array.iteri
    (fun idx line ->
      match find_sub ~start:0 line marker with
      | Some at when after_comment_opener line at ->
          let lineno = idx + 1 in
          let clause =
            String.sub line
              (at + String.length marker)
              (String.length line - at - String.length marker)
          in
          let rules, after = parse_clause clause in
          (* The comment may span lines; coverage runs through the
             expression/binding that follows the close (see
             [starts_binding] above for where that block ends), so one
             marker excuses a multi-line flagged site.  At minimum the
             single line after the close is covered, as before. *)
          let close =
            let rec find i =
              if i >= n then idx
              else
                match find_sub ~start:0 arr.(i) "*)" with
                | Some _ -> i
                | None -> find (i + 1)
            in
            find idx
          in
          let block_end =
            let base = close + 1 in
            if base >= n || String.trim arr.(base) = "" then base + 1
            else begin
              let ind0 = indent_of arr.(base) in
              let rec extend i =
                if i >= n then i
                else if String.trim arr.(i) = "" then i
                else if indent_of arr.(i) <= ind0 && starts_binding arr.(i)
                then i
                else extend (i + 1)
              in
              (* 0-based one past the last covered line = 1-based last *)
              extend (base + 1)
            end
          in
          let last_line = Stdlib.max (close + 2) block_end in
          if rules = [] || not (has_reason clause after) then
            malformed :=
              Finding.v ~rule:"S001" ~file ~line:lineno ~col:at
                "malformed suppression: expected `lint: allow <RULE>[, \
                 <RULE>] \xe2\x80\x94 justification` right after the comment \
                 opener"
              :: !malformed
          else supps := { rules; first_line = lineno; last_line } :: !supps
      | Some _ | None -> ())
    arr;
  (List.rev !supps, List.rev !malformed)

let covers supps ~rule ~line =
  List.exists
    (fun s ->
      line >= s.first_line && line <= s.last_line
      && List.mem rule s.rules)
    supps
