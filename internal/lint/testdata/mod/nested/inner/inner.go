package inner

// Name is a placeholder declaration.
const Name = "inner"
