package queries

// ProtoWrites exposes the prototype-pollution write scan to the
// external equivalence test.
var ProtoWrites = (*LoadedGraph).protoWrites
