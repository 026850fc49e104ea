"""Inputs of the three workloads, made from the seed alone.

Nothing here calls the program: the complexes and morphisms are written
as documents by hand, and the LP file is read into plain dicts.  Every
input's expected answer is known by construction or stated beside it.
"""

import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
LP_DATA = os.path.join(HERE, "lp_cones.txt")

# -- invariants-cli ------------------------------------------------------

# (name, generators, relators); one-vertex presentation complexes.
PRESENTATIONS = (
    ("torus", "ab", ("abAB",)),
    ("aa", "a", ("aa",)),
    ("abab", "ab", ("abab",)),
    ("a^4", "a", ("aaaa",)),
    ("abAB+aa", "ab", ("abAB", "aa")),
    ("genus2", "abcd", ("abABcdCD",)),
    ("a^5", "a", ("aaaaa",)),
    ("aaabbb", "ab", ("aaabbb",)),
    ("aab+abb", "ab", ("aab", "abb")),
    ("aaa+bbb", "ab", ("aaa", "bbb")),
    ("xy", "xy", ("xy",)),
    ("aaab", "ab", ("aaab",)),
)

# The sphere cut into three bigons over the theta graph: two vertices
# joined by edges p, q, r; face i runs along the pair of letters below.
THETA_SPHERE_FACES = (("p", "Q"), ("q", "R"), ("r", "P"))


def presentation_document(gens, relators):
    lines = ["curv2x complex 1", f"presentation {gens}"]
    lines += [f"relator {word}" for word in relators]
    return "\n".join(lines) + "\n"


def theta_sphere_document():
    lines = ["curv2x complex 1", "skeleton-vertex u", "skeleton-vertex v"]
    lines += [f"skeleton-edge {x} {x.upper()} u v" for x in "pqr"]
    for i in range(len(THETA_SPHERE_FACES)):
        lines += [f"boundary-vertex c{i}.0", f"boundary-vertex c{i}.1"]
    for i, (lo, hi) in enumerate(THETA_SPHERE_FACES):
        lines.append(f"boundary-edge e{i}.0 E{i}.0 c{i}.0 c{i}.1")
        lines.append(f"boundary-edge e{i}.1 E{i}.1 c{i}.1 c{i}.0")
        lines.append(f"attach-edge e{i}.0 {lo}")
        lines.append(f"attach-edge e{i}.1 {hi}")
    lines += [f"area c{i}.0 1" for i in range(len(THETA_SPHERE_FACES))]
    return "\n".join(lines) + "\n"


def corpus_documents():
    """[(name, document text)] in a fixed order."""
    docs = [(name, presentation_document(g, r))
            for name, g, r in PRESENTATIONS]
    docs.insert(-2, ("theta-sphere", theta_sphere_document()))
    return docs


def invariants_inputs(seed, directory):
    """Write the corpus.  It is fixed, and so is its order: a complex's
    time depends on what ran before it, so the seed changes nothing."""
    os.makedirs(directory, exist_ok=True)
    items = []
    for name, text in corpus_documents():
        path = os.path.join(directory, f"c{len(items)}.curv2x")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        items.append((name, path, path[:-len(".curv2x")] + ".report"))
    return items


# -- lp-cones ------------------------------------------------------------

def _terms(tokens):
    out = {}
    for tok in tokens:
        index, _, coef = tok.partition(":")
        out[int(index)] = Fraction(coef)
    return out


def read_cones(path=LP_DATA):
    """[(name, variables, rows, objective)]: rows are (coefficients, rhs)
    with coefficients a dict from variable index to Fraction."""
    cones = []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            tokens = line.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            key = tokens[0]
            if key == "cone":
                name, n, rows, objective = tokens[1], int(tokens[2]), [], {}
            elif key == "row":
                rows.append((_terms(tokens[2:]), Fraction(tokens[1])))
            elif key == "objective":
                objective = _terms(tokens[1:])
            elif key == "end":
                cones.append((name, n, rows, objective))
            else:
                raise ValueError(f"unknown line in {path}: {key!r}")
    return cones


def lp_inputs(seed, make_problem):
    """One round: each cone of the file in turn, max and then min.

    The cones are fixed, so the seed changes nothing.  make_problem
    (variables, rows, objective, sense) builds the program's LP object;
    building it is parsing, so it belongs to set-up.
    """
    items = []
    for name, n, rows, objective in read_cones():
        for sense in ("max", "min"):
            problem = make_problem(range(n), rows, objective, sense)
            items.append((name, sense, rows, objective, problem))
    return items


# -- certify-verify ------------------------------------------------------

ROUND_SIZES = tuple(20 + (310 * i) // 44 for i in range(45))
INJECTIVE_KINDS = ("cover", "unfold", "cover+unfold")


class LabelledGraph:
    """A Serre graph with an edge labelling, that is, a map to a rose.

    Edges are named e<i>/E<i> and vertices v<i>; the label of an edge is
    a rose letter, upper case for the reversed loop.
    """

    def __init__(self):
        self.vertices = []
        self.origin = {}
        self.inv = {}
        self.label = {}
        self.out = {}

    def add_vertex(self):
        v = f"v{len(self.vertices)}"
        self.vertices.append(v)
        self.out[v] = []
        return v

    def add_edge(self, o, t, letter):
        i = len(self.origin) // 2
        e, ebar = f"e{i}", f"E{i}"
        self.origin[e], self.origin[ebar] = o, t
        self.inv[e], self.inv[ebar] = ebar, e
        self.label[e], self.label[ebar] = letter, letter.swapcase()
        self.out[o].append(e)
        self.out[t].append(ebar)
        return e

    def move(self, e, w):
        """Give the edge e the origin w."""
        self.out[self.origin[e]].remove(e)
        self.origin[e] = w
        self.out[w].append(e)

    def size(self):
        return len(self.origin) // 2


def rose_graph(letters):
    g = LabelledGraph()
    v = g.add_vertex()
    for x in letters:
        g.add_edge(v, v, x)
    return g


def connected_cover(rng, letters, degree):
    """A connected degree-`degree` cover of the rose; covers immerse, so
    the map is pi1-injective."""
    while True:
        perms = {}
        for x in letters:
            p = list(range(degree))
            rng.shuffle(p)
            perms[x] = p
        parent = list(range(degree))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for p in perms.values():
            for i, j in enumerate(p):
                parent[find(i)] = find(j)
        if len({find(i) for i in range(degree)}) == 1:
            break
    g = LabelledGraph()
    sheets = [g.add_vertex() for _ in range(degree)]
    for x in letters:
        for i in range(degree):
            g.add_edge(sheets[i], sheets[perms[x][i]], x)
    return g


def unfold(rng, g):
    """Undo a fold: split the terminus v of an edge a in two.

    The edges leaving v other than reverse(a) are shared out between v
    and a new vertex w, both sides nonempty, and a new edge with a's
    origin and label ends at w.  Folding it onto a gives back g, and the
    fold is essential (distinct termini), so the map to the rose is still
    pi1-injective and the graph stays a connected core graph.
    """
    v = rng.choice([u for u in g.vertices if len(g.out[u]) >= 3])
    a = g.inv[rng.choice(g.out[v])]
    rest = [e for e in g.out[v] if e != g.inv[a]]
    rng.shuffle(rest)
    cut = rng.randint(1, len(rest) - 1)
    w = g.add_vertex()
    for e in rest[cut:]:
        g.move(e, w)
    g.add_edge(g.origin[a], w, g.label[a])


def unfolded(rng, g, steps):
    for _ in range(steps):
        unfold(rng, g)
    return g


def make_morphism(rng, kind, size, letters):
    """(graph, codomain letters, expected injective) of about `size` edges.

    Only the shape of the graph is random: the kind, the rose and the
    number of unfolds are fixed by the size, so every seed gives the
    program the same amount of folding.  rank-drop maps a pi1-injective
    cover-and-unfold of rose("ab") on to rose("a") by b -> a; its rank is
    at least 2 and its image is cyclic, so it is not injective.
    """
    if kind == "rank-drop":
        degree = max(2, round(size / 4))
        g = unfolded(rng, connected_cover(rng, "ab", degree),
                     size - 2 * degree)
        g.label = {e: x.replace("b", "a").replace("B", "A")
                   for e, x in g.label.items()}
        return g, "a", False
    k = len(letters)
    if kind == "cover":
        return connected_cover(rng, letters, round(size / k)), letters, True
    if kind == "unfold":
        return unfolded(rng, rose_graph(letters), size - k), letters, True
    degree = max(2, round(size / (2 * k)))
    return unfolded(rng, connected_cover(rng, letters, degree),
                    size - k * degree), letters, True


def morphism_document(g, letters):
    lines = ["curv2x morphism 1", "domain"]
    lines += [f"vertex {v}" for v in g.vertices]
    edges = [e for e in g.origin if e.startswith("e")]
    lines += [f"edge {e} {g.inv[e]} {g.origin[e]} {g.origin[g.inv[e]]}"
              for e in edges]
    lines += ["codomain", "vertex r"]
    lines += [f"edge {x} {x.upper()} r r" for x in letters]
    lines += [f"map-vertex {v} r" for v in g.vertices]
    lines += [f"map-edge {e} {g.label[e]}" for e in edges]
    return "\n".join(lines) + "\n"


def certify_inputs(seed, directory):
    """One round: a morphism for each entry of ROUND_SIZES.

    Every third one is rank-drop; the others cycle through covers,
    unfold chains on a rose and unfold chains on a cover.  Returns
    [(kind, edges, morphism path, certificate path, expected injective,
    document)].
    """
    os.makedirs(directory, exist_ok=True)
    rng = random.Random(seed)
    items = []
    for i, size in enumerate(ROUND_SIZES):
        kind = ("rank-drop" if i % 3 == 2
                else INJECTIVE_KINDS[(i - i // 3) % 3])
        letters = "abc"[:2 + i % 2]
        g, letters, injective = make_morphism(rng, kind, size, letters)
        text = morphism_document(g, letters)
        path = os.path.join(directory, f"m{i}.curv2x")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        items.append((kind, g.size(), path, path[:-len(".curv2x")] + ".cert",
                      injective, text))
    return items
