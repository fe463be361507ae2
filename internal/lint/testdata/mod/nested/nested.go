package nested

// Name is a placeholder declaration.
const Name = "nested"
