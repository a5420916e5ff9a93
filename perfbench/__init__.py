"""otgeo benchmark: seeded workloads, certification and outside-in tracing."""
