from .adam import AdamState, adam_init, adam_step
from .checkpoint import (
    CheckpointError,
    load_checkpoint,
    load_checkpoint_file,
    save_checkpoint,
    save_checkpoint_file,
)
from .models import (
    ARCH_CNN,
    ARCH_TREE_LSTM,
    ARCH_TREE_RNN,
    ARCH_WAVENET,
    ModelConfig,
    ModelParams,
    PairInput,
    combiner_logit,
    conv1d,
    embed_sequence,
    embed_tree,
    forward_logits,
    init_model,
    loss_and_grads,
)
from .train import (
    TrainConfig,
    accuracy,
    batch_scores,
    prepare_pairs,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
