// The benchmark is a module of its own so that building it never
// touches the repository's build; the import path stays under dais/ so
// that the internal packages (internal/client first of all) remain
// importable through the replace below.
module dais/benchmark

go 1.22

require dais v0.0.0

replace dais => ../
