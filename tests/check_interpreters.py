"""Stdlib-only check that the front end and the distance rows behave alike
on every supported Python (3.11 to 3.13).

Run it from the repository root with the interpreter under test:

    python tests/check_interpreters.py

It needs neither click nor pytest. For each corpus file, each grammar-tour
fixture, each seed-1 input of the three benchmark workloads and each input
in ``GRAMMAR_CASES`` (among them a few hundred seeded define forms with
random formulas in every context of the grammar walk) it hashes the input
bytes, ``repr(tokenize(...))`` and the ``repr`` of the input's typed model
read both as a domain and as a problem (``parse_domain`` and
``parse_problem``, of each define form), and compares them with the
digests recorded below, which Python 3.11.7 produced. It also checks that a
parsed forest survives a pickle round trip, and that the distance rows,
computed column by column, equal ``euclidean`` bit for bit on seeded 1-D to
4-D points of magnitudes 1e-3 to 1e8: in 2-D the rows add by ``+``, not
``sum``, and of the 3-D and 4-D pairs, some a compensated float ``sum``
(Python 3.12 and later) and a plain left fold add to different values. It
prints one line per mismatch and exits 1 if there is any, else 0.
``--record`` prints the digests of the running interpreter in the form of
``EXPECTED``.
"""

import hashlib
import math
import pickle
import random
import sys
from functools import reduce
from operator import add
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import gen  # noqa: E402  (benchmarks/gen.py: the seeded input generator)
from mypddl.distance import LocationFact, _distance_rows, euclidean  # noqa: E402
from mypddl.highlight import tokenize  # noqa: E402
from mypddl.model import head_key, parse_domain, parse_problem  # noqa: E402
from mypddl.sexpr import Document, Span, serialize  # noqa: E402

WORKLOADS = ("large-problem", "distance-grid", "broken-domain")

# Inputs whose scopes the typed-list reader and the grammar-free emitter
# decide: a '-' with nothing after it in each kind of typed list, an
# (either ...) return type in :functions, and a variable at the head of a
# list past the walk's depth limit.
GRAMMAR_CASES = {
    "grammar/dangling-dash": b"(define (domain d) (:types a -)\n"
    b"  (:predicates (p ?x -)) (:functions (f ?x -) -)\n"
    b"  (:action a :parameters (?x -) :effect (forall (?y -) (p ?y))))\n",
    "grammar/either-return": b"(define (domain d) (:types t u)\n"
    b"  (:functions (f ?x) - (either t u) (g) - (h)))\n",
    "grammar/deep-variable-head": b"(define (domain d) (:foo "
    + b"(x " * 105 + b"(?v a)" + b")" * 105 + b"))\n",
    # Actions whose scopes follow from their lexemes' classes, among
    # durative actions, actions with a comment, a number, (), a repeated,
    # missing or misspelled key, a nested (and ...) or a keyword as a
    # predicate, and an unclosed action last.
    "grammar/plain-actions": b"(define (domain d) (:types t u - object)\n"
    b"  (:action move :parameters (?x ?y - t ?z - u)\n"
    b"    :precondition (and (at ?x ?y) (not (road ?y ?z)) (either ?x))\n"
    b"    :effect (and (at ?x ?z) (not (at ?x ?y))))\n"
    b"  (:ACTION Stop :Parameters (?x) :PRECONDITION (NOT (p ?x d))"
    b" :effect (p ?x))\n"
    b"  (:action bare)\n"
    b"  (:action only-effect :effect (and))\n"
    b"  (:action note :parameters (?x) ; why\n    :effect (p ?x))\n"
    b"  (:action empty :parameters () :precondition (p) :effect (q))\n"
    b"  (:action twice :effect (p) :effect (q))\n"
    b"  (:action order :effect (p) :precondition (q))\n"
    b"  (:action count :parameters (?x) :effect (p ?x 2))\n"
    b"  (:action deep :effect (and (and (p)) (when (q) (r))))\n"
    b"  (:action typo :parameters (?x) :precondtion (p ?x) :effect (q))\n"
    b"  (:action either :parameters (?x - (either t u)) :effect (p ?x))\n"
    b"  (:action :parameters (?x) :effect (p ?x))\n"
    b"  (:action caf\xc3\xa9 :parameters (?x) :effect (\xc3\xa9t\xc3\xa9 ?x))\n"
    b"  (:durative-action fly :parameters (?x - t) :duration (= ?duration 2)\n"
    b"    :condition (at start (p ?x)) :effect (at end (q ?x)))\n"
    b"  (:action open :parameters (?x) :effect (and (p ?x)\n",
}

# Atoms of the generated walk input: names (some of them keywords in other
# contexts), variables, numbers, and atoms that are none of these.
NAMES = ("p", "q", "road", "at", "over", "start", "end", "all", "either",
         "number", "and", "when", "minimize", "object", "Depot")
VARIABLES = ("?x", "?y", "?duration", "?V")
NUMBERS = ("0", "2", "2.5", "-3", "1e3", ".5")
JUNK = ("-", ":foo", ":parameters", "1x", "?", "#", "?1", "a.b", "é")
# The shapes of well-formed formulas in each context: a head, then the
# contexts of its values, one ending in '*' repeated zero to three times.
SHAPES = {
    "condition": [("and", "condition*"), ("or", "condition*"),
                  ("not", "condition"), ("imply", "condition", "condition"),
                  ("forall", "params", "condition"),
                  ("exists", "params", "condition"),
                  ("preference", "name", "condition"),
                  ("preference", "condition"),
                  *((op, "fexp", "fexp")
                    for op in ("=", "<", ">", "<=", ">="))],
    "effect": [("and", "effect*"), ("not", "effect"),
               ("when", "condition", "effect"), ("forall", "params", "effect"),
               *((op, "fexp", "fexp") for op in (
                   "assign", "increase", "decrease", "scale-up",
                   "scale-down"))],
    "init": [("=", "fexp", "fexp"), ("not", "init"), ("at", "number", "init")],
    "timed-condition": [("and", "timed-condition*"),
                        ("at", "when", "condition"),
                        ("over", "when", "condition")],
    "timed-effect": [("and", "timed-effect*"), ("at", "when", "effect"),
                     ("over", "when", "effect")],
    "fexp": [(op, "fexp", "fexp") for op in "+-*/"] + [("f", "fexp*")],
}
WHEN = ("start", "end", "all", "START", "during", "(start)")


def _atom(rng: random.Random) -> str:
    return rng.choice(rng.choice((NAMES, VARIABLES, NUMBERS, JUNK)))


def _junk(rng: random.Random, depth: int) -> str:
    """Random content: an atom, or a list headed by anything."""
    if depth <= 0 or rng.random() < 0.3:
        return _atom(rng)
    heads = [head for shapes in SHAPES.values() for head, *_ in shapes]
    items = [rng.choice((_atom(rng), rng.choice(heads), f"({_atom(rng)})"))]
    items += (_junk(rng, depth - 1) for _ in range(rng.randint(0, 3)))
    return "(" + " ".join(items[rng.random() < 0.1:]) + ")"


def _typed(rng: random.Random, items: tuple[str, ...]) -> str:
    """A typed list of ``items``, some types compound or misplaced."""
    parts = []
    for _ in range(rng.randint(0, 3)):
        parts += (rng.choice(items) for _ in range(rng.randint(1, 3)))
        if rng.random() < 0.6:
            parts += ["-", rng.choice(("t", "object", "(either t u)",
                                       "?x", "(t)", "2"))]
    return " ".join(parts + ["-"] * (rng.random() < 0.1))


def _value(rng: random.Random, context: str, depth: int) -> str:
    """A value of ``context``; now and then random content instead."""
    if rng.random() < 0.08:
        return _junk(rng, depth)
    if context == "params":
        return f"({_typed(rng, VARIABLES)})"
    if context in ("name", "number", "when"):
        return rng.choice({"name": NAMES, "number": NUMBERS,
                           "when": WHEN}[context])
    if depth <= 0 or rng.random() < 0.3:
        if context == "fexp":
            return rng.choice(NUMBERS + VARIABLES + ("(f)", "(f ?x)"))
        terms = (rng.choice(NAMES + VARIABLES)
                 for _ in range(rng.randint(0, 3)))
        return "(" + " ".join((rng.choice(NAMES), *terms)) + ")"
    head, *values = rng.choice(SHAPES[context])
    if rng.random() < 0.1:
        head = head.upper()
    items = [head]
    for value in values:
        repeat = rng.randint(0, 3) if value.endswith("*") else 1
        items += (_value(rng, value.rstrip("*"), depth - 1)
                  for _ in range(repeat))
    return "(" + " ".join(items) + ")"


def _blocks(rng: random.Random, kind: str) -> list[str]:
    """Every block of a domain or a problem, each with random values."""
    def some(context: str, depth: int = 3) -> str:
        return " ".join(_value(rng, context, depth)
                        for _ in range(rng.randint(0, 3)))

    if kind == "problem":
        return [f"(:domain {rng.choice(NAMES + JUNK)})",
                f"(:objects {_typed(rng, NAMES)})", f"(:init {some('init')})",
                f"(:goal {some('condition')})",
                f"(:metric {rng.choice(('minimize', 'maximize', 'least'))} "
                f"{some('fexp')})",
                f"(:constraints {some('condition')})"]
    keys = {":action": [":parameters params", ":precondition condition",
                        ":effect effect"],
            ":durative-action": [":parameters params", ":duration condition",
                                 ":condition timed-condition",
                                 ":effect timed-effect"]}
    blocks = [f"(:requirements :strips {rng.choice(('TYPING', ':adl', 'x'))})",
              f"(:types {_typed(rng, NAMES)})",
              f"(:constants {_typed(rng, NAMES)})",
              "(:predicates " + " ".join(
                  f"({rng.choice(NAMES + JUNK)} {_typed(rng, VARIABLES)})"
                  for _ in range(rng.randint(0, 3))) + ")",
              f"(:functions (f {_typed(rng, VARIABLES)}) - number (g) "
              f"{rng.choice(('- (either t u)', '-', ''))})",
              f"(:derived ({rng.choice(NAMES)} ?x) {some('condition')})",
              f"(:constraints {some('condition')})"]
    for head, entries in keys.items():
        parts = [head, rng.choice(NAMES + JUNK + ("",))]
        for entry in entries:
            key, context = entry.split()
            if rng.random() < 0.15:
                key = key[:-1]
            parts += [key, _value(rng, context, 3)]
        blocks.append("(" + " ".join(parts) + ")")
    return blocks


def generated_defines(seed: int, count: int) -> bytes:
    """``count`` define forms, each a domain or a problem whose every
    context holds random well-formed and broken formulas."""
    rng = random.Random(seed)
    forms = []
    for _ in range(count):
        kind = rng.choice(("domain", "problem"))
        blocks = _blocks(rng, kind)
        rng.shuffle(blocks)
        decl = rng.choice((f"({kind} n)", f"({kind} n)", f"({kind})", "x"))
        if rng.random() < 0.3:
            blocks.insert(rng.randrange(len(blocks) + 1), _junk(rng, 3))
        forms.append(f"(define {decl}\n  " + "\n  ".join(blocks) + ")\n")
    return "".join(forms).encode("utf-8")


GRAMMAR_CASES["grammar/generated"] = generated_defines(20260, 300)

# name -> sha256 of the input bytes, of repr(tokenize(input)), of
# repr(parse_domain(input)) and of repr(parse_problem(input))
EXPECTED = {
    "corpus/coffee.pddl": (
        "88bb2b7202f4fb7df22ad0bd6efd019b68efd20bd08376825d90a8efe90557be",
        "829c11f9d0d46f5722f37f123256f523ad1b8ad7f0a4b09e7df4e981016f5833",
        "c9bd49828a18f4235ebe80e0d8ff1ef88ea2fab022378f5aaa7b279069cc3ad8",
        "816d113696e909c35b44a67a19140bd8aef7e908996f9c2ac29f53a65557483b"),
    "corpus/gary_pizza_problem.pddl": (
        "39ef20bdb916e98b0aa6310910b75c728d2b783dba8529c3216ab50c0bf82d81",
        "34ca851799b70ea1f1c3939b4467564912f50c8cf656f3737285c605c0473f5a",
        "d7b3086aa450774f9443907d00bd1703b7bc36312830e8b27ce58d077b5b712b",
        "600f66ff93d65ccbdf7ae16a026f2d6599d97b31b6e5205666792174af4e30e0"),
    "corpus/garys_huge_problem.pddl": (
        "5f53eecf50fad7d00dcabade1dacb6f96be80fcc86072ca4bd54be5da3ff696c",
        "44eded840235e6f26c8561352d460c08123915469351a4a030c9fb6a54225aa0",
        "08201770957ee2c03862bd03eee7c9f1ea77b8e187988ce34be0e3bb5c636a8a",
        "d25ccd1090664d8cfd3153af1eca4102c49abe6316ee511177d2c5554339f275"),
    "corpus/logistics.pddl": (
        "d37fff1f7c1ec9f760247b1a12d35134efce2872fbff70402c7f97fbfc2a28be",
        "2290f532b35d2d486b974d501e34c8b71339671402e17a7184aa34ed150b13f7",
        "3e5f0266d39065ec6469e58944be97a1c66641229a462b03f1e675b83d6900f2",
        "974173241432f1adb4950328f685d7cf170b55eda34322c4988166d8d5b4fe5a"),
    "corpus/splisus.pddl": (
        "b36ccb2fa1bb564dca9a0fca07394e0471334dd77ebaac462680ab36e8c6afd1",
        "4a1a6565c03824c46449534d66e4430297b336123d1b03f50bb135f47f1ced8d",
        "2e1ff374af6374a9ed6f93892ba1868fb171a6f4119ede7c2f3329a97020ff09",
        "4b601df7cefad389370ba6399fcf3cf54e5b52c98828050e6c964d88b4bfeee4"),
    "corpus/store.pddl": (
        "da38aef5c337d5689910377d02b5ccd16ad64ebc09fe7984c8e5f295fc8478ca",
        "684f0bec938d9dce4e29ce238d7939683c231e224928b620254d4dfa3c3139a0",
        "9d1989b6d24048355136abbd92156b22572a84e595e4bec697c63fe70a9b66a8",
        "6372ffa0831cc8b8ee07cf0656aac662b89e2f518065fc1220c1e0bd4c58f1ad"),
    "fixtures/tour_domain.pddl": (
        "d66b344ac59464a41e1ddf137490886459549aabec32bf9a3601039a2bce6aa3",
        "026aa3d2f272e3de6cc89b05dd504d38384ce29bae1cced4c258e26c4b5033d1",
        "552c00f36c547553d3d0988eeaed9fecaf6695c97753304d20c18eeab10b6afb",
        "7adb5abe31b9255d5ede1ca166dff9fb25aaf3b424751e3d39b758477c0821a4"),
    "fixtures/tour_problem.pddl": (
        "671819a2a6e357b6e86907b0b19c63c9a956c6c67e614c58b5229d288bfa2082",
        "8c3bf95e8fb51f25137abb80a4fad4cfaeb9c0704d6d56b427968480a5160e80",
        "b6480c9c803224530dc495137bf4db9c9a10d0f478fe8a8570f1cafc6b30d7a5",
        "6998e02b42f2743aa381c87a82492c416fd602332fdb7890dbc2d59800c24f1b"),
    "large-problem/domain": (
        "db48b71c205bed5c33f8546cb1e28aecb9c05b61995deed03e39c56153dcf94d",
        "895b4f1384325384dc65c42659cda7a2e7f57c4cf3839f3d81c0f99fa3f722fb",
        "e5caa3b97978f5fc5ff73bc8c7dcff00b768c42b2471478be886dd827c62a73c",
        "5014186842bb41a07420da55173c152a6a50b13f8f9e41b8093f3da39969cb57"),
    "large-problem/problem": (
        "f258067bbe25b36c04ff4a467ddc03ea09f8a415265b0ff8c7198318ebd6edbf",
        "00f0c627d28868420bc3caff09a487c0acc7c9e320ccfc8c086e47bf97375824",
        "7156d847ab879e568e92431053772a37a3701cd1efee869b0c7a9f1781753d08",
        "17a76e04b7fccee52192e3eb5be8aec6efa82a7bd0f1ca4206e79980a558311c"),
    "distance-grid/domain": (
        "cae37e0a29c9f2c18146c92bcc69f42966c35b2ef1d846b00483ac619b500661",
        "8484f83d7d6ea642bee961030f5d71c6d3e38cbd480352a5134b497a8c4a5ed4",
        "289914304c4545aee922452fbdf4393462139f28923375195d99cf465739ef63",
        "e415a4a739fa499f6a0b937e50468954d30de9cda5e66a03d889030dce10e646"),
    "distance-grid/problem": (
        "ee96ef8c7748534390834069fcc11f1da37440a9d2d6cfd188b02cd35875022e",
        "7abe9daf1876349a20a01f6ee36966f261e54c95212a7dd168b44d351459e284",
        "bb9e4ddd76f512ee7cf7913f2c0026142d0ebe439931e4e781a194394e4fc9bb",
        "3870ebe6635ebc4cee00676bbdd7cdb0ddb29b35dc450e6e462ac68b6fea0137"),
    "broken-domain/domain": (
        "c472b490bef72c21048c5bf259056f1a17a65376a587edd7d4fe69f6678fb6fe",
        "ef14547aa5ef374aacb2119a6903bf76311ceffe325564a47bef72bfc9fe5bb3",
        "1c66d6a79362b7895efb61b1f52e155eef40b2493a843f25df707fd45b803b75",
        "abdc2dafc168bf4f3f3e1f772a2c51534b2d7079c15736c7f67a7023e9a873c2"),
    "broken-domain/problem": (
        "b09d2a173696001ef3b2682cfaaae0a148c6c8b5d803ce9a776d38d68767597b",
        "46abb17c8f0087eb4d09b48e7d3564f5a9c8b142c9a1e452443b860c68afaf41",
        "26376e90d5e1fdbf843ae1cc1bb75a2d62f0a901f9532b434e0b72519dd4d807",
        "72ea97acbb4d2d234457d09e94a481555b0a577c2c76505818c906b63fafc026"),
    "crlf": (
        "190cda4434038994a4bea7b2d900417890ea92e6b56267934ae3be4b30706314",
        "8c1e96c55f0077d063d280c36140e59843ac75416eca437a34408ec9aa732c9d",
        "b50c388ef82ae40db45e112f981a55e3f9ba7ee4efe4330be83ff3001b275d01",
        "2f962ffafac7fb30b9ee4e48baa414ec677b3b724cedafc43633a2c68eceef1c"),
    "grammar/dangling-dash": (
        "657e6dc54410351822389f1bfebdb7bd331f84f88697dd8a319a747eeb930724",
        "98815359135f1f4be7b87b7ed3e93c57955d5bb7a6e645f379a6dec28037cc1d",
        "4d115de70f36b349cd8247a2d579ddb2edda0c1ce3465f539dbd156d6ed7e6d9",
        "08cc7ebecbfdb7c69544abada6449e0a36f2c497001c4bd9fec45405a1817190"),
    "grammar/either-return": (
        "78eb100975e86de988f54e233c2401c50986eb45b72cfb08f479d4bc37c83821",
        "8cba25cc7a03f3da2fc79095b53e4953ba7dcb55e5daea4ca86322ac723b8fba",
        "9e7f1c315ad54c5a26c2555de7d85aef2648233af6cb7605d34cf41f1e8f3855",
        "9ee7397415f9070b01e41efd0449175a3d93885ca8707d1b999ab7740d36d32c"),
    "grammar/deep-variable-head": (
        "57f5ee9dbb20bfb418b7dd26a2e0e4512d58d34df2b1e0fac8bd959d7f2b0e01",
        "19c6343ffb66c065dd2868cb03668addc1ce879d499ab39fc23350ee6233960e",
        "27cf637bb5ae7c94ccf34cefe1bb470736ed44619be6572ce6a7e85c8e492498",
        "625b46c04709e876ab128203e10f22210f0c1eb2d6b23d029e97f966e6a7d3d4"),
    "grammar/plain-actions": (
        "5f1a8512644d5be357d5840e4d2a1bdad43d185f40fa8f22d4d5bce8e99e3a06",
        "7f7dbe61b511bbbbea95dc67e32ffbf8a735b116a0d71d1d25e9e21e77ffb422",
        "d71f979d2ee30e6c7ee44368c2f4dd9f850bcdf4196de9a73759bbc6f38a15c8",
        "a903561e593ea4a70c56a03919e522471d383e32e0a5e34db4491ae53ba3a41c"),
    "grammar/generated": (
        "173367573deeefde4c63b9c256b010b9b4a5167d77371f6a0ef8edc04d55dda7",
        "6b63cca7d2c7248c89ccbddce5888f248f04a3b137484d967e38e5a8ac8d5512",
        "fd76b6036f04f253d6857affbc99a7e4cbe7b3cf9d38323b14e3000659cfc797",
        "f96edb85196aa9576dc1dc78cbcaa640fbfd881a9a70b7b7bb2fc1d410366f7a"),
}


def inputs() -> dict[str, bytes]:
    """Every UTF-8 input, by a name that says where it came from."""
    paths = [*sorted((ROOT / "tests" / "corpus").glob("*.pddl")),
             *sorted((ROOT / "tests" / "fixtures").glob("tour_*.pddl"))]
    found = {f"{path.parent.name}/{path.name}": path.read_bytes()
             for path in paths}
    for workload in WORKLOADS:
        generated = gen.generate(workload, 1)
        found[f"{workload}/domain"] = generated.domain.text
        found[f"{workload}/problem"] = generated.problem.text
    found["crlf"] = gen.crlf_problem().text
    found.update(GRAMMAR_CASES)
    return found


def digests(data: bytes) -> tuple[str, ...]:
    doc = Document(data)
    # The model reads the first define form of a document; each later one,
    # as in the generated input, is read again as a document of its own.
    later = [Document(data[node.span.start:node.span.end])
             for node in doc.forest if head_key(node) == "define"][1:]
    return tuple(hashlib.sha256(text).hexdigest() for text in (
        data, repr(tokenize(doc)).encode("utf-8"),
        *(repr([read(doc), *map(read, later)]).encode("utf-8")
          for read in (parse_domain, parse_problem))))


def compensated_sum(values: list[float]) -> float:
    """The float ``sum`` of Python 3.12 and later (Neumaier's summation)."""
    total = carry = 0.0
    for x in values:
        t = total + x
        carry += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + carry


def distance_mismatches() -> tuple[int, list[str]]:
    """The number of pairs compared, and one line per pair whose distance
    row value differs from ``euclidean`` in any bit."""
    rng = random.Random(20240)
    pairs, apart, failures = 0, 0, []
    for dim in (3, 4, 1, 2):  # the 3-D and 4-D points come first
        points = [tuple(rng.choice((-1, 1)) * rng.uniform(1, 10)
                        * 10.0 ** rng.randint(-3, 8) for _ in range(dim))
                  for _ in range(40)]
        facts = [LocationFact(f"p{k}", p, Span(0, 0))
                 for k, p in enumerate(points)]
        for i, row in enumerate(_distance_rows(facts)):
            for b, value in zip(points[i + 1:], row):
                squares = [(x - y) ** 2 for x, y in zip(points[i], b)]
                pairs += 1
                apart += math.sqrt(compensated_sum(squares)) \
                    != math.sqrt(reduce(add, squares, 0.0))
                if value.hex() != euclidean(points[i], b).hex():
                    failures.append(f"the {dim}-D distance row value "
                                    f"{value.hex()} of {points[i]} and {b} "
                                    "is not euclidean's")
    if not apart:
        failures.append("no seeded pair tells a compensated sum from a fold")
    return pairs, failures


def main(argv: list[str]) -> int:
    found = {name: digests(data) for name, data in inputs().items()}
    if "--record" in argv:
        for name, recorded in found.items():
            print(f'    "{name}": (\n        "'
                  + '",\n        "'.join(recorded) + '"),')
        return 0
    failures = []
    for name in sorted(found.keys() | EXPECTED.keys()):
        got, want = found.get(name), EXPECTED.get(name)
        if got is None or want is None:
            failures.append(f"{name}: recorded {want is not None}, "
                            f"found {got is not None}")
        elif got[0] != want[0]:
            failures.append(f"{name}: the input bytes differ")
        else:
            failures += (f"{name}: the {what} differ" for what, a, b in zip(
                ("tokens", "domain models", "problem models"),
                got[1:], want[1:]) if a != b)
    data = inputs()["corpus/coffee.pddl"] + b"\n(unclosed (list"
    forest = Document(data).forest
    if serialize(pickle.loads(pickle.dumps(forest))).encode("utf-8") != data:
        failures.append("a pickled forest does not serialize to its input")
    pairs, mismatches = distance_mismatches()
    failures += mismatches
    version = ".".join(map(str, sys.version_info[:3]))
    for line in failures:
        print(f"python {version}: {line}")
    if not failures:
        print(f"python {version}: {len(found)} inputs match, a forest "
              f"pickles, and {pairs} distances equal euclidean's bit for bit")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
