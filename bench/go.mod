module raxml/bench

go 1.24

require raxml v0.0.0

replace raxml => ../
