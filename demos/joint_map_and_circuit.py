"""Walk through the exact joint-probability map on a three-leaf tree.

Builds the general Markov map, prints one coordinate as a polynomial,
then compares the shared sum-product circuit against the fully expanded
form by counting arithmetic operations.
"""

from phyloag import expand_map, make_model, parse_newick
from phyloag import paramap

tree = parse_newick("(1,(2,3));")
model = make_model(tree, "general-markov", root_mode="free", k=2)
jm = expand_map(model)

print(f"tree: {tree.to_newick()}  edges={tree.num_edges}  "
      f"leaves={tree.num_leaves}")
print(f"parameters: {len(model.symbols)}  coordinates: {jm.num_coordinates}")
print(f"degree of each coordinate: {paramap.degree_profile(jm)}")
print()

flat = paramap.flat_index((0, 0, 0), 2)
print("p_000 =", jm.coordinate(flat))
print()

# tying all edges to a single matrix shows the circuit sharing payoff
homog = make_model(tree, "homogeneous", root_mode="free", k=2,
                   homogeneous_base="general-markov")
jh = expand_map(homog)
mul, add = jh.circuit.op_counts(jh.circuit.outputs[0])
emul, eadd = paramap.expanded_op_count(jh.coordinate(0))
print("homogeneous p_000 as a circuit: "
      f"{mul} multiplications, {add} additions")
print("same coordinate fully expanded: "
      f"{emul} multiplications, {eadd} additions")
