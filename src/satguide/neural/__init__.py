"""The neural clause scorer: the autodiff engine (`tensor`), the embedding
architectures and combiner (`models`), Adam (`adam`), the training loop
(`train`) and checkpoints (`checkpoint`). Import each from its module."""
