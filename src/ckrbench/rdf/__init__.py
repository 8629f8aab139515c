"""RDF terms, quads, the named-graph store and TriG I/O."""
